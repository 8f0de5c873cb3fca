//! The spike graph: a trained SNN annotated with spike traffic.
//!
//! Paper §III: "The SNN can be represented as a graph G = (A, S) … each
//! synapse s_{i,j} is a tuple ⟨a_i, a_j, T_{i,j}⟩ where T_{i,j} are the
//! spike times of the presynaptic neuron a_i. This graph represents the
//! initial specification of a trained SNN … generated from CARLsim."
//!
//! Here the graph is generated from a `neuromap-snn` [`Simulator`] run via
//! [`SpikeGraph::from_record`], or built directly with
//! [`SpikeGraph::from_parts`] for synthetic studies. Spike *counts* drive
//! the partitioning cost (Eq. 7 sums |T_i| over cut synapses); spike
//! *times* drive the interconnect traffic schedule.
//!
//! [`Simulator`]: neuromap_snn::Simulator

use crate::error::CoreError;
use neuromap_snn::network::Network;
use neuromap_snn::simulator::SpikeRecord;
use neuromap_snn::spikes::SpikeTrain;
use serde::{Deserialize, Serialize};

/// A trained SNN as a traffic-annotated graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeGraph {
    num_neurons: u32,
    /// Spike count per neuron (|T_i|).
    counts: Vec<u32>,
    /// Spike times per neuron (empty trains permitted).
    trains: Vec<SpikeTrain>,
    /// Flat synapse list (pre, post).
    synapses: Vec<(u32, u32)>,
    /// CSR over synapses by presynaptic neuron.
    out_offsets: Vec<u32>,
    out_posts: Vec<u32>,
    /// CSR over synapses by postsynaptic neuron.
    in_offsets: Vec<u32>,
    in_pres: Vec<u32>,
    /// Population boundaries: `pop_offsets[k]..pop_offsets[k+1]` is the
    /// contiguous id range of population `k`. Always starts at 0 and ends
    /// at `num_neurons`. Single population by default.
    pop_offsets: Vec<u32>,
}

impl SpikeGraph {
    /// Builds a graph from explicit parts, with per-neuron spike *counts*
    /// only (synthetic studies that never touch the timing-level NoC
    /// simulation). Spike trains are synthesized as evenly spaced times.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidGraph`] if `counts.len() != num_neurons` or a
    /// synapse endpoint is out of range.
    pub fn from_parts(
        num_neurons: u32,
        synapses: Vec<(u32, u32)>,
        counts: Vec<u32>,
    ) -> Result<Self, CoreError> {
        if counts.len() != num_neurons as usize {
            return Err(CoreError::InvalidGraph(format!(
                "{} counts for {num_neurons} neurons",
                counts.len()
            )));
        }
        let trains = counts
            .iter()
            .map(|&c| {
                // even spacing over a nominal 1000-step window
                let step = 1000u32.checked_div(c).unwrap_or(0).max(1);
                (0..c).map(|k| k * step).collect()
            })
            .collect();
        Self::build(num_neurons, synapses, counts, trains)
    }

    /// Builds a graph from explicit synapses and spike trains.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidGraph`] on length mismatch or dangling synapse
    /// endpoints.
    pub fn from_trains(
        num_neurons: u32,
        synapses: Vec<(u32, u32)>,
        trains: Vec<SpikeTrain>,
    ) -> Result<Self, CoreError> {
        if trains.len() != num_neurons as usize {
            return Err(CoreError::InvalidGraph(format!(
                "{} trains for {num_neurons} neurons",
                trains.len()
            )));
        }
        let counts = trains.iter().map(|t| t.len() as u32).collect();
        Self::build(num_neurons, synapses, counts, trains)
    }

    /// Extracts the spike graph of a simulated network — the CARLsim →
    /// dataflow-graph step of the paper's Figure 4. Population boundaries
    /// are taken from the network's neuron groups.
    pub fn from_record(net: &Network, record: &SpikeRecord) -> Self {
        let num = net.num_neurons();
        let synapses: Vec<(u32, u32)> = net.synapses().iter().map(|s| (s.pre, s.post)).collect();
        let trains: Vec<SpikeTrain> = record.trains().to_vec();
        let counts: Vec<u32> = trains.iter().map(|t| t.len() as u32).collect();
        let graph =
            Self::build(num, synapses, counts, trains).expect("network output is consistent");
        let mut offsets: Vec<u32> = net.groups().iter().map(|g| g.first).collect();
        offsets.push(num);
        graph
            .with_populations(offsets)
            .expect("group layout is contiguous")
    }

    fn build(
        num_neurons: u32,
        synapses: Vec<(u32, u32)>,
        counts: Vec<u32>,
        trains: Vec<SpikeTrain>,
    ) -> Result<Self, CoreError> {
        for &(pre, post) in &synapses {
            if pre >= num_neurons || post >= num_neurons {
                return Err(CoreError::InvalidGraph(format!(
                    "synapse ({pre}, {post}) out of range for {num_neurons} neurons"
                )));
            }
        }
        let n = num_neurons as usize;
        let mut offs = vec![0u32; n + 1];
        for &(pre, _) in &synapses {
            offs[pre as usize + 1] += 1;
        }
        for i in 0..n {
            offs[i + 1] += offs[i];
        }
        let mut cursor = offs.clone();
        let mut posts = vec![0u32; synapses.len()];
        for &(pre, post) in &synapses {
            posts[cursor[pre as usize] as usize] = post;
            cursor[pre as usize] += 1;
        }
        let mut in_offs = vec![0u32; n + 1];
        for &(_, post) in &synapses {
            in_offs[post as usize + 1] += 1;
        }
        for i in 0..n {
            in_offs[i + 1] += in_offs[i];
        }
        let mut cursor = in_offs.clone();
        let mut pres = vec![0u32; synapses.len()];
        for &(pre, post) in &synapses {
            pres[cursor[post as usize] as usize] = pre;
            cursor[post as usize] += 1;
        }
        Ok(Self {
            num_neurons,
            counts,
            trains,
            synapses,
            out_offsets: offs,
            out_posts: posts,
            in_offsets: in_offs,
            in_pres: pres,
            pop_offsets: vec![0, num_neurons],
        })
    }

    /// Declares population (neuron-group) boundaries: `offsets` must start
    /// at 0, be strictly increasing, and end at `num_neurons`. Population
    /// structure is what hierarchical mappers like PACMAN operate on.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidGraph`] if the offsets are malformed.
    pub fn with_populations(mut self, offsets: Vec<u32>) -> Result<Self, CoreError> {
        let valid = offsets.first() == Some(&0)
            && offsets.last() == Some(&self.num_neurons)
            && offsets.windows(2).all(|w| w[0] < w[1]);
        if !valid {
            return Err(CoreError::InvalidGraph(format!(
                "population offsets {offsets:?} must rise from 0 to {}",
                self.num_neurons
            )));
        }
        self.pop_offsets = offsets;
        Ok(self)
    }

    /// Population id ranges, in order.
    pub fn populations(&self) -> Vec<std::ops::Range<u32>> {
        self.pop_offsets.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// Number of neurons (nodes).
    pub fn num_neurons(&self) -> u32 {
        self.num_neurons
    }

    /// Number of synapses (edges).
    pub fn num_synapses(&self) -> usize {
        self.synapses.len()
    }

    /// Spike count of neuron `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: u32) -> u32 {
        self.counts[i as usize]
    }

    /// Per-neuron spike counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Spike train of neuron `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn train(&self, i: u32) -> &SpikeTrain {
        &self.trains[i as usize]
    }

    /// The flat synapse list.
    pub fn synapses(&self) -> &[(u32, u32)] {
        &self.synapses
    }

    /// Postsynaptic targets of neuron `i` (CSR row).
    pub fn targets(&self, i: u32) -> &[u32] {
        let lo = self.out_offsets[i as usize] as usize;
        let hi = self.out_offsets[i as usize + 1] as usize;
        &self.out_posts[lo..hi]
    }

    /// Presynaptic sources of neuron `i` (reverse CSR row).
    pub fn sources(&self, i: u32) -> &[u32] {
        let lo = self.in_offsets[i as usize] as usize;
        let hi = self.in_offsets[i as usize + 1] as usize;
        &self.in_pres[lo..hi]
    }

    /// Total spikes fired across all neurons.
    pub fn total_spikes(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Total synaptic events: Σ over synapses of the presynaptic count —
    /// the denominator of "how much traffic exists at all".
    pub fn total_synaptic_events(&self) -> u64 {
        (0..self.num_neurons)
            .map(|i| self.counts[i as usize] as u64 * self.targets(i).len() as u64)
            .sum()
    }

    /// Duration of the recorded activity in timesteps (last spike + 1).
    pub fn duration_steps(&self) -> u32 {
        self.trains
            .iter()
            .filter_map(|t| t.last())
            .max()
            .map_or(1, |t| t + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> SpikeGraph {
        SpikeGraph::from_parts(4, vec![(0, 1), (1, 2), (2, 3)], vec![5, 3, 2, 1]).unwrap()
    }

    #[test]
    fn from_parts_basics() {
        let g = chain();
        assert_eq!(g.num_neurons(), 4);
        assert_eq!(g.num_synapses(), 3);
        assert_eq!(g.count(0), 5);
        assert_eq!(g.targets(1), &[2]);
        assert_eq!(g.targets(3), &[0u32; 0]);
        assert_eq!(g.total_spikes(), 11);
        assert_eq!(g.total_synaptic_events(), 5 + 3 + 2);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = SpikeGraph::from_parts(3, vec![], vec![1, 2]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidGraph(_)));
    }

    #[test]
    fn dangling_synapse_rejected() {
        let err = SpikeGraph::from_parts(2, vec![(0, 5)], vec![1, 1]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidGraph(_)));
    }

    #[test]
    fn sources_mirror_targets() {
        let g = SpikeGraph::from_parts(4, vec![(0, 2), (1, 2), (3, 2), (2, 3)], vec![1, 1, 1, 1])
            .unwrap();
        assert_eq!(g.sources(2), &[0, 1, 3]);
        assert_eq!(g.sources(3), &[2]);
        assert_eq!(g.sources(0), &[0u32; 0]);
        // every (pre, post) appears in both CSRs
        for &(pre, post) in g.synapses() {
            assert!(g.targets(pre).contains(&post));
            assert!(g.sources(post).contains(&pre));
        }
    }

    #[test]
    fn synthesized_trains_match_counts() {
        let g = chain();
        for i in 0..4 {
            assert_eq!(g.train(i).len() as u32, g.count(i));
        }
    }

    #[test]
    fn from_trains_counts_derived() {
        let g = SpikeGraph::from_trains(
            2,
            vec![(0, 1)],
            vec![SpikeTrain::from_times(vec![1, 5, 7]), SpikeTrain::new()],
        )
        .unwrap();
        assert_eq!(g.count(0), 3);
        assert_eq!(g.count(1), 0);
        assert_eq!(g.duration_steps(), 8);
    }

    #[test]
    fn from_record_roundtrip() {
        use neuromap_snn::generator::Generator;
        use neuromap_snn::network::{ConnectPattern, NetworkBuilder, WeightInit};
        use neuromap_snn::neuron::NeuronKind;
        use rand::SeedableRng;

        let mut b = NetworkBuilder::new();
        let i = b
            .add_input_group("in", 3, Generator::poisson(50.0))
            .unwrap();
        let o = b.add_group("out", 2, NeuronKind::izhikevich_rs()).unwrap();
        b.connect(i, o, ConnectPattern::Full, WeightInit::Constant(6.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        let mut sim = neuromap_snn::Simulator::new(net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rec = sim.run(500, &mut rng).unwrap();
        let g = SpikeGraph::from_record(sim.network(), &rec);
        assert_eq!(g.num_neurons(), 5);
        assert_eq!(g.num_synapses(), 6);
        assert_eq!(g.total_spikes(), rec.total_spikes());
    }

    #[test]
    fn duration_of_silent_graph_is_one() {
        let g = SpikeGraph::from_parts(2, vec![(0, 1)], vec![0, 0]).unwrap();
        assert_eq!(g.duration_steps(), 1);
    }
}
