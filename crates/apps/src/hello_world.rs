//! CARLsim's "hello world": a 13×9 visual field projecting onto 9 outputs.
//!
//! The paper lists this as *feedforward (117, 9), rate coding*. CARLsim's
//! tutorial network drives a small grid of Poisson neurons with a drifting
//! bar stimulus and reads the response of a handful of downstream neurons;
//! we reproduce that: a 13×9 input field rate-codes a vertical bar that
//! sweeps horizontally, and each of the 9 output neurons pools a 13-pixel
//! column triplet.

use crate::App;
use neuromap_core::CoreError;
use neuromap_snn::coding::rate_encode;
use neuromap_snn::generator::Generator;
use neuromap_snn::network::{ConnectPattern, Network, NetworkBuilder, WeightInit};
use neuromap_snn::neuron::NeuronKind;

/// Field width (pixels / input columns).
pub const WIDTH: u32 = 13;
/// Field height (pixels / input rows).
pub const HEIGHT: u32 = 9;

/// The hello-world application.
#[derive(Debug, Clone, Copy)]
pub struct HelloWorld {
    /// Peak Poisson rate for a fully lit pixel (Hz).
    pub max_rate_hz: f64,
    /// Simulation length (ms).
    pub steps: u32,
    /// Synaptic weight from input pixel to its pooling output.
    pub weight: f32,
}

impl Default for HelloWorld {
    fn default() -> Self {
        Self {
            max_rate_hz: 60.0,
            steps: 1000,
            weight: 2.4,
        }
    }
}

impl HelloWorld {
    /// The stimulus: a vertical bar (2 px wide) centered at column
    /// `bar_center`, plus a dim background.
    pub fn stimulus(bar_center: u32) -> Vec<f64> {
        let mut img = vec![0.08; (WIDTH * HEIGHT) as usize];
        for y in 0..HEIGHT {
            for x in 0..WIDTH {
                if x.abs_diff(bar_center) <= 1 {
                    img[(y * WIDTH + x) as usize] = 1.0;
                }
            }
        }
        img
    }
}

impl App for HelloWorld {
    fn name(&self) -> String {
        "HW".to_owned()
    }

    fn build(&self, _seed: u64) -> Result<Network, CoreError> {
        let img = Self::stimulus(WIDTH / 2);
        let rates = rate_encode(&img, self.max_rate_hz);
        let mut b = NetworkBuilder::new();
        let input = b.add_input_group("field", WIDTH * HEIGHT, Generator::rates(rates))?;
        let out = b.add_group("pool", 9, NeuronKind::izhikevich_rs())?;
        // Each output pools a 3-column stripe (the 9 stripes tile 13
        // columns with overlap at the edges).
        let mut pairs = Vec::new();
        for j in 0..9u32 {
            let c0 = (j * (WIDTH - 3) / 8).min(WIDTH - 3);
            for dy in 0..HEIGHT {
                for dx in 0..3 {
                    pairs.push((dy * WIDTH + c0 + dx, j));
                }
            }
        }
        b.connect(
            input,
            out,
            ConnectPattern::Pairs { pairs },
            WeightInit::Constant(self.weight),
            1,
        )?;
        Ok(b.build()?)
    }

    fn sim_steps(&self) -> u32 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_table1() {
        let net = HelloWorld::default().build(0).unwrap();
        assert_eq!(net.num_neurons(), 117 + 9);
        let (_, input) = net.group_by_name("field").unwrap();
        assert_eq!(input.size, 117);
        let (_, out) = net.group_by_name("pool").unwrap();
        assert_eq!(out.size, 9);
    }

    #[test]
    fn stimulus_has_a_bar() {
        let img = HelloWorld::stimulus(6);
        let lit = img.iter().filter(|&&v| v > 0.9).count();
        assert_eq!(lit, 3 * HEIGHT as usize); // 3 columns × 9 rows
    }

    #[test]
    fn bar_columns_fire_fastest() {
        let app = HelloWorld::default();
        let graph = app.spike_graph(7).unwrap();
        // inputs under the bar (columns 5..=7) fire much more than edges
        let col_rate =
            |c: u32| -> u64 { (0..HEIGHT).map(|y| graph.count(y * WIDTH + c) as u64).sum() };
        assert!(col_rate(6) > 3 * col_rate(0).max(1));
    }

    #[test]
    fn outputs_respond() {
        let app = HelloWorld::default();
        let graph = app.spike_graph(11).unwrap();
        let output_spikes: u64 = (117..126).map(|i| graph.count(i) as u64).sum();
        assert!(output_spikes > 0, "pooling outputs must fire");
    }

    #[test]
    fn graph_is_reproducible() {
        let app = HelloWorld::default();
        let a = app.spike_graph(3).unwrap();
        let b = app.spike_graph(3).unwrap();
        assert_eq!(a, b);
    }
}
