//! The baseline partitioners the paper compares against (Fig. 5). The
//! paper dismisses the evolutionary alternatives, simulated annealing and
//! genetic algorithms, on convergence speed, so neither is kept here.
//!
//! * [`PacmanPartitioner`] — PACMAN (Galluppi et al., Computing Frontiers
//!   2012), SpiNNaker's hierarchical configuration system: populations are
//!   split *in index order* into core-sized chunks. No spike-traffic
//!   objective. This is the paper's main comparison point.
//! * [`NeutramsPartitioner`] — NEUTRAMS-style ad-hoc mapping (Ji et al.,
//!   MICRO 2016, as used in the paper): a NoC simulator evaluates a mapping
//!   produced *without* solving the local/global partitioning problem; we
//!   realize it as round-robin interleaving, the canonical
//!   partition-oblivious placement and the normalization baseline of
//!   Fig. 5.

mod neutrams;
mod pacman;

pub use neutrams::NeutramsPartitioner;
pub use pacman::PacmanPartitioner;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;
    use crate::partition::{PartitionProblem, Partitioner};
    use crate::pso::{PsoConfig, PsoPartitioner};

    /// A layered net whose natural partition is by layer.
    fn layered() -> SpikeGraph {
        // 3 layers of 4 neurons, fully connected between consecutive layers
        let mut synapses = Vec::new();
        for layer in 0..2u32 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    synapses.push((layer * 4 + a, (layer + 1) * 4 + b));
                }
            }
        }
        SpikeGraph::from_parts(12, synapses, vec![10; 12]).unwrap()
    }

    #[test]
    fn all_baselines_produce_feasible_mappings() {
        let g = layered();
        let p = PartitionProblem::new(&g, 3, 4).unwrap();
        let parts: Vec<Box<dyn Partitioner>> = vec![
            Box::new(PacmanPartitioner::new()),
            Box::new(NeutramsPartitioner::new()),
        ];
        for part in parts {
            let m = part
                .partition(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", part.name()));
            assert!(p.is_feasible(m.assignment()), "{}", part.name());
        }
    }

    #[test]
    fn pacman_beats_neutrams_on_local_connectivity() {
        // On sparse, index-local wiring (chains, neighborhoods) sequential
        // packing keeps neighbors together while round-robin scatters them.
        // (On dense fully connected layers all balanced splits tie — the
        // paper's 4x200 observation.)
        let synapses: Vec<(u32, u32)> = (0..11u32).map(|i| (i, i + 1)).collect();
        let g = SpikeGraph::from_parts(12, synapses, vec![10; 12]).unwrap();
        let p = PartitionProblem::new(&g, 3, 4).unwrap();
        let pacman = PacmanPartitioner::new().partition(&p).unwrap();
        let neutrams = NeutramsPartitioner::new().partition(&p).unwrap();
        // chain: PACMAN cuts exactly 2 links (20 spikes); round-robin cuts all 11
        assert_eq!(p.cut_spikes(pacman.assignment()), 20);
        assert!(
            p.cut_spikes(neutrams.assignment()) > 20,
            "round-robin must scatter the chain"
        );
    }

    #[test]
    fn optimizers_beat_pacman_on_interleaved_ids() {
        // permuted ids destroy index locality: PACMAN suffers, a pure
        // swarm (no injected baselines, no polish) recovers
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut perm: Vec<u32> = (0..12).collect();
        perm.shuffle(&mut rng);
        let base = layered();
        let synapses: Vec<(u32, u32)> = base
            .synapses()
            .map(|(a, b)| (perm[a as usize], perm[b as usize]))
            .collect();
        let g = SpikeGraph::from_parts(12, synapses, vec![10; 12]).unwrap();
        let p = PartitionProblem::new(&g, 3, 4).unwrap();

        let pacman = PacmanPartitioner::new().partition(&p).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            seed_baselines: false,
            polish_passes: 0,
            ..PsoConfig::default()
        })
        .partition(&p)
        .unwrap();
        assert!(
            p.cut_spikes(pso.assignment()) <= p.cut_spikes(pacman.assignment()),
            "an optimizer must not lose to index packing on shuffled ids"
        );
    }
}
