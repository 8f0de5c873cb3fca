//! Property-based tests over the multilevel coarsen–partition–refine
//! path (`core::multilevel`): projections of feasible coarse assignments
//! must stay capacity-valid all the way down, the V-cycle must never
//! price worse than the pure projection of its coarsest solution, the
//! parallel refinement must be byte-identical across thread counts, and
//! on a clustered small-instance corpus the V-cycle must match or beat
//! flat PSO at the same swarm budget.

use neuromap::core::multilevel::{build_levels, vcycle, MultilevelConfig};
use neuromap::core::partition::{FitnessKind, PartitionProblem};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::SpikeGraph;
use proptest::prelude::*;

mod common;

/// This suite's graphs: at least 8 neurons (enough nodes that coarsening
/// has something to merge), sparser and quieter than `common::arb_graph`'s.
fn arb_graph(n_max: u32) -> impl Strategy<Value = SpikeGraph> {
    common::arb_graph_with(8, n_max, 4, 20)
}

/// A clustered graph: `clusters` dense blocks of `size` neurons (every
/// intra-cluster pair, heavy counts) plus a light ring of single
/// cross-cluster synapses — the structure heavy-edge matching is built
/// to collapse, with a known-good optimum of one cluster per crossbar.
fn clustered(clusters: u32, size: u32, seed: u32) -> SpikeGraph {
    let n = clusters * size;
    let mut edges = Vec::new();
    for c in 0..clusters {
        let base = c * size;
        for i in 0..size {
            for j in 0..size {
                if i != j {
                    edges.push((base + i, base + j));
                }
            }
        }
        // one light synapse to the next cluster, offset by the seed so
        // the corpus varies which boundary nodes carry the cross traffic
        let next = ((c + 1) % clusters) * size;
        edges.push((base + seed % size, next + (seed / 7) % size));
    }
    let counts = vec![5u32; n as usize];
    SpikeGraph::from_parts(n, edges, counts).expect("endpoints in range")
}

/// Small-but-coarsenable config with the given thread count; PSO and
/// refinement both run deterministically from a fixed seed.
fn small_cfg(threads: usize) -> MultilevelConfig {
    MultilevelConfig {
        pso: PsoConfig {
            swarm_size: 8,
            iterations: 8,
            seed_baselines: false,
            polish_passes: 0,
            threads,
            ..PsoConfig::default()
        },
        min_coarse_neurons: 4,
        max_levels: 4,
        threads,
        ..MultilevelConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(32)))]

    /// Any feasible assignment of any coarse level projects down to a
    /// feasible assignment of the original problem — the invariant that
    /// makes solving at the coarsest level sound at all.
    #[test]
    fn projection_preserves_feasibility(
        graph in arb_graph(48),
        c in 2usize..=6,
        rotation in 0u32..64,
    ) {
        let n = graph.num_neurons();
        // headroom so capacity stays halvable for a level or two
        let cap = 2 * n.div_ceil(c as u32) + 2;
        let problem = PartitionProblem::new(&graph, c, cap).expect("feasible");
        let stack = build_levels(&problem, &small_cfg(1));
        for k in 0..stack.num_levels() {
            let coarse = stack.problem_at(k, &problem).expect("stack levels are valid");
            let nk = coarse.graph().num_neurons();
            // a rotated round-robin is feasible at the coarse level
            // whenever the level itself is feasible (ceil(nk/c) <= cap_k)
            let assignment: Vec<u32> =
                (0..nk).map(|i| (i + rotation) % c as u32).collect();
            prop_assert!(coarse.is_feasible(&assignment), "level {k} round-robin");
            let mut fine = assignment;
            for j in (0..=k).rev() {
                fine = stack.project(j, &fine);
            }
            prop_assert!(
                problem.is_feasible(&fine),
                "level {k} projection violates fine capacity"
            );
        }
    }

    /// The V-cycle's never-worse guard: the returned cost is (a) the
    /// true fine cost of the returned mapping and (b) never above the
    /// pure projection of the coarsest solution.
    #[test]
    fn vcycle_never_worse_than_projection(
        graph in arb_graph(48),
        c in 2usize..=6,
        kind_idx in 0usize..2,
    ) {
        let n = graph.num_neurons();
        let cap = 2 * n.div_ceil(c as u32) + 2;
        let problem = PartitionProblem::new(&graph, c, cap).expect("feasible");
        let kind = [FitnessKind::CutSpikes, FitnessKind::CutPackets][kind_idx];
        let mut cfg = small_cfg(1);
        cfg.pso.fitness = kind;
        let out = vcycle(&problem, &cfg).expect("vcycle runs");
        prop_assert!(problem.is_feasible(out.mapping.assignment()));
        prop_assert_eq!(out.cost, problem.cost(kind, out.mapping.assignment()));
        prop_assert!(
            out.cost <= out.projected_cost,
            "refined {} > projected {}",
            out.cost,
            out.projected_cost
        );
    }

    /// The parallel boundary refinement is byte-identical across thread
    /// counts: sharding only changes who *proposes*, never what is
    /// applied.
    #[test]
    fn vcycle_is_byte_identical_across_threads(
        graph in arb_graph(40),
        c in 2usize..=5,
    ) {
        let n = graph.num_neurons();
        let cap = 2 * n.div_ceil(c as u32) + 2;
        let problem = PartitionProblem::new(&graph, c, cap).expect("feasible");
        let base = vcycle(&problem, &small_cfg(1)).expect("vcycle runs");
        for threads in [2usize, 4] {
            let out = vcycle(&problem, &small_cfg(threads)).expect("vcycle runs");
            prop_assert_eq!(
                out.mapping.assignment(),
                base.mapping.assignment(),
                "threads {} diverged from single-threaded run",
                threads
            );
            prop_assert_eq!(out.cost, base.cost);
        }
    }

    /// On the clustered corpus the multilevel path must match or beat
    /// flat PSO given the identical swarm budget: heavy-edge matching
    /// collapses exactly the blocks the swarm would otherwise have to
    /// discover coordinate by coordinate.
    #[test]
    fn vcycle_matches_or_beats_flat_pso_on_clustered_corpus(
        clusters in 3u32..=6,
        size in 3u32..=6,
        seed in 0u32..1000,
    ) {
        let graph = clustered(clusters, size, seed);
        let problem = PartitionProblem::new(&graph, clusters as usize, size * 2)
            .expect("feasible");
        let cfg = small_cfg(1);
        let flat = PsoPartitioner::new(cfg.pso)
            .partition_traced(&problem)
            .expect("feasible")
            .0;
        let flat_cost = problem.cut_spikes(flat.assignment());
        let out = vcycle(&problem, &cfg).expect("vcycle runs");
        prop_assert!(
            out.cost <= flat_cost,
            "vcycle {} worse than flat PSO {} on {}x{} corpus instance",
            out.cost,
            flat_cost,
            clusters,
            size
        );
    }
}
