//! Greedy single-neuron refinement of a partition.
//!
//! A best-improvement hill climber over the same objectives as the PSO:
//! each pass visits every neuron and applies the best capacity-feasible
//! migration that lowers the cost, until a pass makes no progress or the
//! pass budget is exhausted. Used as the PSO's optional *polish* stage —
//! it closes the gap between a small laptop swarm and the paper's
//! 1000-particle × 100-iteration cloud runs — and as a standalone local
//! optimizer.
//!
//! Candidate moves are priced by the shared incremental engine through
//! [`crate::eval::Candidate::best_move`]: in O(deg) each under the
//! per-synapse (Eq. 8) and the multicast-aware packet objectives; under
//! the hop-aware one a neuron pays its move's `to`-independent half once,
//! O(C + deg), and each open crossbar O(distinct targets + deg_in) — no
//! full re-evaluation anywhere in the loop.

use crate::eval::{Candidate, EvalEngine};
use crate::partition::{FitnessKind, PartitionProblem};

/// Refines `assignment` in place; returns the final cost.
///
/// The assignment must be feasible on entry (capacity-respecting); it
/// stays feasible throughout.
///
/// # Panics
///
/// Panics if `assignment` has the wrong length or is infeasible, or if
/// `kind` is [`FitnessKind::CutHops`] and `problem` carries no hop table
/// (callers that return `Result` check
/// [`PartitionProblem::check_objective`] first).
pub fn refine(
    problem: &PartitionProblem<'_>,
    kind: FitnessKind,
    assignment: &mut [u32],
    max_passes: u32,
) -> u64 {
    assert!(
        problem.is_feasible(assignment),
        "refine requires a feasible starting assignment"
    );
    let engine = EvalEngine::new(*problem, kind);
    let mut candidate = Candidate::new(&engine, assignment);
    let n = candidate.assignment().len();
    let c = problem.num_crossbars() as u32;

    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..n {
            if let Some((to, delta)) = candidate.best_move(i, 0..c) {
                candidate.apply(i, to, delta);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let cost = candidate.cost();
    debug_assert_eq!(cost, problem.cost(kind, assignment));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_graph(n: u32, edges: usize, seed: u64) -> SpikeGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let synapses: Vec<(u32, u32)> = (0..edges)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        SpikeGraph::from_parts(n, synapses, counts).expect("valid graph")
    }

    #[test]
    fn refine_never_worsens() {
        for seed in 0..5 {
            let g = random_graph(24, 90, seed);
            let p = PartitionProblem::new(&g, 4, 8).unwrap();
            for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
                let mut a: Vec<u32> = (0..24).map(|i| i % 4).collect();
                let before = p.cost(kind, &a);
                let after = refine(&p, kind, &mut a, 10);
                assert!(
                    after <= before,
                    "{kind:?} seed {seed}: {after} !<= {before}"
                );
                assert!(p.is_feasible(&a));
                assert_eq!(after, p.cost(kind, &a), "incremental cost drifted");
            }
        }
    }

    #[test]
    fn refine_finds_cluster_structure() {
        // two cliques split across crossbars round-robin: refinement should
        // untangle them completely
        let mut synapses = Vec::new();
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a != b {
                    synapses.push((a, b));
                    synapses.push((a + 6, b + 6));
                }
            }
        }
        let g = SpikeGraph::from_parts(12, synapses, vec![10; 12]).unwrap();
        // one slot of slack per crossbar lets single-neuron migrations
        // rotate the cliques apart (exact-fit instances have no feasible
        // single moves at all — a structural property of migration-only
        // local search)
        let p = PartitionProblem::new(&g, 2, 7).unwrap();
        let mut a: Vec<u32> = (0..12).map(|i| i % 2).collect();
        let cost = refine(&p, FitnessKind::CutSpikes, &mut a, 20);
        assert_eq!(cost, 0, "cliques fit entirely on their own crossbars");
    }

    #[test]
    fn packet_refinement_clusters_targets() {
        // one hub firing into 8 targets; packets minimized by pulling all
        // targets onto as few crossbars as possible
        let synapses: Vec<(u32, u32)> = (1..9).map(|j| (0, j)).collect();
        let g = SpikeGraph::from_parts(9, synapses, vec![100, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        let p = PartitionProblem::new(&g, 3, 5).unwrap();
        // hub + 4 targets on crossbar 0 (full), 3 on crossbar 1, the last
        // alone on crossbar 2 — the lone straggler is a strictly improving
        // migration onto crossbar 1
        let mut a: Vec<u32> = vec![0, 0, 0, 0, 0, 1, 1, 1, 2];
        let before = p.cut_packets(&a);
        assert_eq!(before, 200);
        let cost = refine(&p, FitnessKind::CutPackets, &mut a, 20);
        // best reachable: 100 spikes × 1 remote crossbar
        assert_eq!(cost, 100);
    }

    #[test]
    fn self_loops_handled() {
        let g = SpikeGraph::from_parts(4, vec![(0, 0), (0, 1), (2, 3)], vec![5, 1, 3, 0]).unwrap();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
            let mut a = vec![0, 1, 0, 1];
            let after = refine(&p, kind, &mut a, 10);
            assert_eq!(after, p.cost(kind, &a));
        }
    }

    #[test]
    fn duplicate_self_loops_tracked_exactly() {
        // regression: a neuron with TWO self-loop synapses — the packet
        // bookkeeping must move both when the neuron migrates
        let g =
            SpikeGraph::from_parts(2, vec![(0, 0), (0, 1), (1, 0), (0, 0)], vec![1, 1]).unwrap();
        let p = PartitionProblem::new(&g, 3, 2).unwrap();
        let mut a = vec![0, 1];
        let after = refine(&p, FitnessKind::CutPackets, &mut a, 4);
        assert_eq!(after, p.cut_packets(&a), "incremental cost must not drift");
        // optimum co-locates both neurons: zero packets
        assert_eq!(after, 0);
    }

    #[test]
    fn refine_handles_the_multi_word_envelope() {
        // 96 crossbars (2 mask words): the incremental packet tallies and
        // the greedy loop must agree with a scalar recompute throughout
        let g = random_graph(96, 300, 9);
        let p = PartitionProblem::new(&g, 96, 2).unwrap();
        for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
            let mut a: Vec<u32> = (0..96).map(|i| i % 96).collect();
            let before = p.cost(kind, &a);
            let after = refine(&p, kind, &mut a, 6);
            assert!(after <= before, "{kind:?}");
            assert!(p.is_feasible(&a), "{kind:?}");
            assert_eq!(after, p.cost(kind, &a), "{kind:?} drifted");
        }
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn infeasible_start_rejected() {
        let g = random_graph(6, 10, 1);
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let mut a = vec![0, 0, 0, 0, 0, 0]; // over capacity
        let _ = refine(&p, FitnessKind::CutSpikes, &mut a, 1);
    }
}
