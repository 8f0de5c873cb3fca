//! The fixed-timestep simulation engine.
//!
//! Clock-driven, 1 ms default resolution (CARLsim's native step). Each step:
//!
//! 1. deliver the synaptic currents scheduled for this step (axonal-delay
//!    ring buffer),
//! 2. sample input-group generators,
//! 3. integrate all model neurons,
//! 4. enqueue outgoing currents at `t + delay`, run STDP updates,
//! 5. record spikes.
//!
//! The output is a [`SpikeRecord`] — per-neuron spike trains — from which
//! `neuromap-core` builds the spike graph that the partitioner consumes.

use crate::error::SnnError;
use crate::network::{GroupKind, Network};
use crate::neuron::NeuronModel;
use crate::spikes::SpikeTrain;
use crate::stdp::{StdpConfig, StdpState};
use crate::synapse::MAX_DELAY;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Timestep in milliseconds.
    pub dt_ms: f64,
    /// Optional plasticity rule applied to synapses flagged `plastic`.
    pub stdp: Option<StdpConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            dt_ms: 1.0,
            stdp: None,
        }
    }
}

/// Recorded spikes of a full simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpikeRecord {
    trains: Vec<SpikeTrain>,
    steps: u32,
}

impl SpikeRecord {
    /// Creates an empty record for `n` neurons over `steps` timesteps.
    pub fn new(n: usize, steps: u32) -> Self {
        Self {
            trains: vec![SpikeTrain::new(); n],
            steps,
        }
    }

    /// Number of neurons covered by the record.
    pub fn num_neurons(&self) -> usize {
        self.trains.len()
    }

    /// Duration of the run in timesteps.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Spike train of neuron `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn train(&self, id: u32) -> &SpikeTrain {
        &self.trains[id as usize]
    }

    /// All trains, indexed by global neuron id.
    pub fn trains(&self) -> &[SpikeTrain] {
        &self.trains
    }

    /// Total spikes across all neurons.
    pub fn total_spikes(&self) -> u64 {
        self.trains.iter().map(|t| t.len() as u64).sum()
    }

    /// Records a spike (used by the simulator and by test fixtures).
    pub fn record(&mut self, id: u32, t: u32) {
        self.trains[id as usize].push(t);
    }
}

/// Fixed-timestep SNN simulator.
///
/// Owns the [`Network`] for the duration of the run (weights may change
/// under STDP); [`Simulator::into_network`] releases it afterwards.
pub struct Simulator {
    net: Network,
    config: SimConfig,
    models: Vec<Option<Box<dyn NeuronModel + Send>>>,
    /// CSR over synapses, grouped by presynaptic neuron.
    out_offsets: Vec<u32>,
    out_synapses: Vec<u32>,
    /// CSR over *plastic* synapses, grouped by postsynaptic neuron.
    in_plastic_offsets: Vec<u32>,
    in_plastic: Vec<u32>,
    /// Ring buffer of scheduled currents: `ring[t mod (MAX_DELAY+1)][neuron]`.
    ring: Vec<Vec<f32>>,
    stdp: Option<StdpState>,
    time: u32,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("neurons", &self.net.num_neurons())
            .field("synapses", &self.net.synapses().len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator with the default configuration (1 ms, no STDP).
    pub fn new(net: Network) -> Self {
        Self::with_config(net, SimConfig::default())
    }

    /// Builds a simulator with an explicit [`SimConfig`].
    pub fn with_config(net: Network, config: SimConfig) -> Self {
        let n = net.num_neurons() as usize;
        let mut models: Vec<Option<Box<dyn NeuronModel + Send>>> = Vec::with_capacity(n);
        for g in net.groups() {
            match &g.kind {
                GroupKind::Model(kind) => {
                    for _ in 0..g.size {
                        models.push(Some(kind.build()));
                    }
                }
                GroupKind::Input(_) => {
                    for _ in 0..g.size {
                        models.push(None);
                    }
                }
            }
        }

        let (out_offsets, out_synapses) = csr_by(&net, |s| s.pre);
        let (in_plastic_offsets, in_plastic) = csr_plastic_by_post(&net);
        let ring = vec![vec![0.0; n]; MAX_DELAY as usize + 1];
        let stdp = config
            .stdp
            .map(|c| StdpState::new(c, n, config.dt_ms as f32));

        Self {
            net,
            config,
            models,
            out_offsets,
            out_synapses,
            in_plastic_offsets,
            in_plastic,
            ring,
            stdp,
            time: 0,
        }
    }

    /// Current simulation time in steps.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Read access to the (possibly plasticity-updated) network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consumes the simulator, returning the network with trained weights.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Runs for `steps` timesteps, recording every spike.
    ///
    /// May be called repeatedly; time continues from the previous call.
    ///
    /// # Errors
    ///
    /// Reserved for future resource limits; currently always `Ok`.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        steps: u32,
        rng: &mut R,
    ) -> Result<SpikeRecord, SnnError> {
        let mut record = SpikeRecord::new(self.net.num_neurons() as usize, steps);
        let mut fired: Vec<u32> = Vec::new();
        for _ in 0..steps {
            self.step(rng, &mut fired);
            // `time` was already advanced by step(); the spike belongs to the
            // step that just executed.
            let t = self.time - 1;
            for &id in &fired {
                record.record(id, t);
            }
        }
        Ok(record)
    }

    /// Advances one timestep; `fired` is cleared and filled with the global
    /// ids of neurons that spiked.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, fired: &mut Vec<u32>) {
        fired.clear();
        let t = self.time;
        let slot = (t % (MAX_DELAY as u32 + 1)) as usize;
        let dt = self.config.dt_ms as f32;

        // 1. currents due now
        let currents = std::mem::take(&mut self.ring[slot]);

        // 2. + 3. sample inputs, integrate models
        for g in self.net.groups() {
            match &g.kind {
                GroupKind::Input(gen) => {
                    for (local, id) in g.range().enumerate() {
                        if gen.fires(local, t, self.config.dt_ms, rng) {
                            fired.push(id);
                        }
                    }
                }
                GroupKind::Model(_) => {
                    for id in g.range() {
                        let model = self.models[id as usize]
                            .as_mut()
                            .expect("model neuron has state");
                        if model.step(currents[id as usize], dt) {
                            fired.push(id);
                        }
                    }
                }
            }
        }

        // return the (cleared) buffer to the ring
        let mut cleared = currents;
        cleared.iter_mut().for_each(|c| *c = 0.0);
        self.ring[slot] = cleared;

        // 4. propagate spikes & plasticity
        if let Some(stdp) = &mut self.stdp {
            stdp.decay();
        }
        for &id in fired.iter() {
            // potentiation: post fired — strengthen its plastic in-edges.
            // (the trace state is read-only here while the network weights
            // mutate, hence the index-based split borrow)
            if let Some(stdp) = self.stdp.take() {
                let lo = self.in_plastic_offsets[id as usize] as usize;
                let hi = self.in_plastic_offsets[id as usize + 1] as usize;
                for k in lo..hi {
                    let si = self.in_plastic[k] as usize;
                    let pre = self.net.synapses()[si].pre as usize;
                    let dw = stdp.dw_on_post(pre);
                    let w = self.net.synapses()[si].weight + dw;
                    self.net.synapses_mut()[si].weight = stdp.clamp(w);
                }
                self.stdp = Some(stdp);
            }

            let lo = self.out_offsets[id as usize] as usize;
            let hi = self.out_offsets[id as usize + 1] as usize;
            for k in lo..hi {
                let si = self.out_synapses[k] as usize;
                let syn = self.net.synapses()[si];
                let due = ((t + syn.delay as u32) % (MAX_DELAY as u32 + 1)) as usize;
                self.ring[due][syn.post as usize] += syn.weight;
                // depression: pre fired — weaken according to post trace
                if syn.plastic {
                    if let Some(stdp) = &self.stdp {
                        let dw = stdp.dw_on_pre(syn.post as usize);
                        let w = syn.weight + dw;
                        self.net.synapses_mut()[si].weight = stdp.clamp(w);
                    }
                }
            }
            if let Some(stdp) = &mut self.stdp {
                stdp.on_spike(id as usize);
            }
        }

        // divisive normalization
        if let Some(stdp) = &self.stdp {
            if let Some(every) = stdp.config().normalize_every {
                if every > 0 && t % every == every - 1 {
                    self.normalize_inbound(stdp.config().normalize_target);
                }
            }
        }

        self.time = t + 1;
    }

    /// Rescales each postsynaptic neuron's inbound plastic weights to sum to
    /// `target` (divisive normalization).
    fn normalize_inbound(&mut self, target: f32) {
        let n = self.net.num_neurons() as usize;
        for post in 0..n {
            let lo = self.in_plastic_offsets[post] as usize;
            let hi = self.in_plastic_offsets[post + 1] as usize;
            if lo == hi {
                continue;
            }
            let sum: f32 = self.in_plastic[lo..hi]
                .iter()
                .map(|&si| self.net.synapses()[si as usize].weight)
                .sum();
            if sum > f32::EPSILON {
                let scale = target / sum;
                for &si in &self.in_plastic[lo..hi] {
                    self.net.synapses_mut()[si as usize].weight *= scale;
                }
            }
        }
    }
}

/// Builds a CSR index over synapses keyed by `key` (e.g. presynaptic id).
fn csr_by(net: &Network, key: impl Fn(&crate::synapse::Synapse) -> u32) -> (Vec<u32>, Vec<u32>) {
    let n = net.num_neurons() as usize;
    let mut counts = vec![0u32; n + 1];
    for s in net.synapses() {
        counts[key(s) as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut index = vec![0u32; net.synapses().len()];
    for (si, s) in net.synapses().iter().enumerate() {
        let k = key(s) as usize;
        index[cursor[k] as usize] = si as u32;
        cursor[k] += 1;
    }
    (offsets, index)
}

/// CSR over plastic synapses keyed by postsynaptic neuron.
fn csr_plastic_by_post(net: &Network) -> (Vec<u32>, Vec<u32>) {
    let n = net.num_neurons() as usize;
    let mut counts = vec![0u32; n + 1];
    for s in net.synapses() {
        if s.plastic {
            counts[s.post as usize + 1] += 1;
        }
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut index = vec![0u32; offsets[n] as usize];
    for (si, s) in net.synapses().iter().enumerate() {
        if s.plastic {
            let k = s.post as usize;
            index[cursor[k] as usize] = si as u32;
            cursor[k] += 1;
        }
    }
    (offsets, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;
    use crate::network::{ConnectPattern, NetworkBuilder, WeightInit};
    use crate::neuron::NeuronKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_net(weight: f32) -> Network {
        let mut b = NetworkBuilder::new();
        let inp = b
            .add_input_group("in", 5, Generator::poisson(100.0))
            .unwrap();
        let out = b.add_group("out", 3, NeuronKind::izhikevich_rs()).unwrap();
        b.connect(
            inp,
            out,
            ConnectPattern::Full,
            WeightInit::Constant(weight),
            1,
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn inputs_drive_outputs() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = Simulator::new(simple_net(8.0));
        let rec = sim.run(1000, &mut rng).unwrap();
        let input_spikes: u64 = (0..5).map(|i| rec.train(i).len() as u64).sum();
        let output_spikes: u64 = (5..8).map(|i| rec.train(i).len() as u64).sum();
        assert!(input_spikes > 300, "inputs at 100 Hz: {input_spikes}");
        assert!(output_spikes > 10, "outputs should fire: {output_spikes}");
    }

    #[test]
    fn zero_weight_silences_outputs() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = Simulator::new(simple_net(0.0));
        let rec = sim.run(1000, &mut rng).unwrap();
        let output_spikes: u64 = (5..8).map(|i| rec.train(i).len() as u64).sum();
        assert_eq!(output_spikes, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut sim = Simulator::new(simple_net(6.0));
            sim.run(500, &mut rng).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_shifts_arrival() {
        // one input spike at t=0; delays 1 vs 5 shift the response
        let build = |delay: u16| {
            let mut b = NetworkBuilder::new();
            let one_spike = Generator::explicit(vec![SpikeTrain::from_times(vec![0])]);
            let inp = b.add_input_group("in", 1, one_spike).unwrap();
            let out = b.add_group("out", 1, NeuronKind::lif_default()).unwrap();
            b.connect(
                inp,
                out,
                ConnectPattern::Full,
                WeightInit::Constant(400.0),
                delay,
            )
            .unwrap();
            b.build().unwrap()
        };
        let first_spike = |delay: u16| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut sim = Simulator::new(build(delay));
            let rec = sim.run(40, &mut rng).unwrap();
            rec.train(1).first()
        };
        let d1 = first_spike(1).expect("fires with delay 1");
        let d5 = first_spike(5).expect("fires with delay 5");
        assert_eq!(d5 - d1, 4, "extra delay shifts the response by 4 steps");
    }

    #[test]
    fn inhibition_suppresses() {
        let build = |inh_w: f32| {
            let mut b = NetworkBuilder::new();
            let exc = b
                .add_input_group("exc", 10, Generator::poisson(80.0))
                .unwrap();
            let inh = b
                .add_input_group("inh", 10, Generator::poisson(80.0))
                .unwrap();
            let out = b.add_group("out", 2, NeuronKind::izhikevich_rs()).unwrap();
            b.connect(exc, out, ConnectPattern::Full, WeightInit::Constant(4.0), 1)
                .unwrap();
            b.connect(
                inh,
                out,
                ConnectPattern::Full,
                WeightInit::Constant(inh_w),
                1,
            )
            .unwrap();
            b.build().unwrap()
        };
        let count = |inh_w: f32| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut sim = Simulator::new(build(inh_w));
            let rec = sim.run(1000, &mut rng).unwrap();
            (20..22).map(|i| rec.train(i).len()).sum::<usize>()
        };
        let without = count(0.0);
        let with = count(-4.0);
        assert!(
            with < without,
            "inhibition must reduce rate: {with} !< {without}"
        );
    }

    #[test]
    fn run_twice_continues_time() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = Simulator::new(simple_net(5.0));
        sim.run(100, &mut rng).unwrap();
        assert_eq!(sim.time(), 100);
        sim.run(50, &mut rng).unwrap();
        assert_eq!(sim.time(), 150);
    }

    #[test]
    fn stdp_changes_plastic_weights() {
        let mut b = NetworkBuilder::new();
        let inp = b
            .add_input_group("in", 30, Generator::poisson(100.0))
            .unwrap();
        let out = b.add_group("out", 5, NeuronKind::izhikevich_rs()).unwrap();
        b.connect_plastic(inp, out, ConnectPattern::Full, WeightInit::Constant(2.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        let before: Vec<f32> = net.synapses().iter().map(|s| s.weight).collect();

        let cfg = StdpConfig {
            a_plus: 0.1,
            a_minus: 0.12,
            w_min: 0.0,
            w_max: 5.0,
            ..StdpConfig::default()
        };
        let mut sim = Simulator::with_config(
            net,
            SimConfig {
                dt_ms: 1.0,
                stdp: Some(cfg),
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        sim.run(2000, &mut rng).unwrap();
        let after: Vec<f32> = sim.network().synapses().iter().map(|s| s.weight).collect();
        assert_ne!(before, after, "plastic weights must move under STDP");
        // bounds respected
        assert!(after.iter().all(|&w| (0.0..=5.0).contains(&w)));
    }

    #[test]
    fn static_weights_unchanged_under_stdp() {
        let net = simple_net(3.0);
        let before: Vec<f32> = net.synapses().iter().map(|s| s.weight).collect();
        let mut sim = Simulator::with_config(
            net,
            SimConfig {
                dt_ms: 1.0,
                stdp: Some(StdpConfig::default()),
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        sim.run(500, &mut rng).unwrap();
        let after: Vec<f32> = sim.network().synapses().iter().map(|s| s.weight).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn normalization_keeps_inbound_sum() {
        let mut b = NetworkBuilder::new();
        let inp = b
            .add_input_group("in", 10, Generator::poisson(100.0))
            .unwrap();
        let out = b.add_group("out", 2, NeuronKind::izhikevich_rs()).unwrap();
        b.connect_plastic(inp, out, ConnectPattern::Full, WeightInit::Constant(0.5), 1)
            .unwrap();
        let net = b.build().unwrap();
        let cfg = StdpConfig {
            normalize_every: Some(10),
            normalize_target: 5.0,
            ..StdpConfig::default()
        };
        let mut sim = Simulator::with_config(
            net,
            SimConfig {
                dt_ms: 1.0,
                stdp: Some(cfg),
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        sim.run(100, &mut rng).unwrap();
        // inbound plastic sum per output neuron ≈ 5.0 right after a
        // normalization step (t=99 triggers since 99 % 10 == 9)
        for post in 10..12u32 {
            let sum: f32 = sim
                .network()
                .synapses()
                .iter()
                .filter(|s| s.post == post)
                .map(|s| s.weight)
                .sum();
            assert!((sum - 5.0).abs() < 0.2, "inbound sum {sum} != 5.0");
        }
    }

    #[test]
    fn record_accounting() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sim = Simulator::new(simple_net(6.0));
        let rec = sim.run(200, &mut rng).unwrap();
        assert_eq!(rec.num_neurons(), 8);
        assert_eq!(rec.steps(), 200);
        let sum: u64 = rec.trains().iter().map(|t| t.len() as u64).sum();
        assert_eq!(sum, rec.total_spikes());
        assert!(rec.total_spikes() > 0);
    }
}
