//! Property tests for the joint partition ⇄ placement co-optimization
//! loop (`core::coopt`):
//!
//! * **Thread invariance** — the joint loop's outcome (mapping,
//!   placement, both costs, the full trace) must be byte-identical for
//!   1, 2, and 4 worker threads over random graphs and architectures.
//!   Segmented swarm runs carry per-particle RNG streams across
//!   placement refreshes, so threading stays a pure execution knob.
//! * **Fallback contract** — the returned result never loses to the
//!   staged partition-then-place pipeline on hop-weighted packets, and
//!   `used_joint` truthfully records which side won.
//! * **Feasibility** — the returned placed mapping always satisfies the
//!   architecture's capacity.
//!
//! `NEUROMAP_PROPTEST_CASES` overrides the per-test case count (CI runs
//! a higher-case pass over this suite; see `scripts/verify.sh`).

use neuromap::core::coopt::{co_optimize, CooptConfig};
use neuromap::core::partition::{FitnessKind, PartitionProblem};
use neuromap::core::pipeline::TrafficMode;
use neuromap::core::place::PlaceConfig;
use neuromap::core::pso::PsoConfig;
use neuromap::hw::arch::InterconnectKind;
use neuromap::noc::topology::{DistanceLut, Topology};
use proptest::prelude::*;

mod common;
use common::arb_graph;

fn topology_for(idx: u8, crossbars: usize) -> Box<dyn Topology> {
    let kinds = [
        InterconnectKind::Mesh,
        InterconnectKind::Torus,
        InterconnectKind::Tree { arity: 2 },
        InterconnectKind::Star,
    ];
    common::topology_for(kinds[usize::from(idx % 4)], crossbars)
}

fn small_cfg(seed: u64, threads: usize) -> CooptConfig {
    CooptConfig {
        pso: PsoConfig {
            swarm_size: 10,
            iterations: 12,
            seed,
            threads,
            fitness: FitnessKind::CutHops,
            ..PsoConfig::default()
        },
        place: PlaceConfig {
            restarts: 2,
            sa_moves: 200,
            threads,
            ..PlaceConfig::default()
        },
        replace_every: 5,
        multilevel: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(12)))]

    /// 1, 2, and 4 threads must produce byte-identical joint outcomes —
    /// mapping, placement, staged and joint costs, and the full trace.
    #[test]
    fn joint_loop_is_thread_invariant(
        graph in arb_graph(20),
        topo_idx in 0u8..4,
        traffic_idx in 0u8..2,
        seed in 0u64..1000,
    ) {
        let crossbars = 4usize;
        let capacity = graph.num_neurons().div_ceil(crossbars as u32) + 1;
        let topo = topology_for(topo_idx, crossbars);
        let dist = DistanceLut::new(topo.as_ref());
        let problem = PartitionProblem::new(&graph, crossbars, capacity)
            .unwrap()
            .with_hops(&dist)
            .unwrap();
        let mode = if traffic_idx == 0 { TrafficMode::PerSynapse } else { TrafficMode::PerCrossbar };

        let one = co_optimize(&problem, &dist, mode, &small_cfg(seed, 1)).unwrap();
        for threads in [2usize, 4] {
            let many = co_optimize(&problem, &dist, mode, &small_cfg(seed, threads)).unwrap();
            prop_assert_eq!(
                &many, &one,
                "thread count {} changed the joint outcome", threads
            );
        }
    }

    /// The joint loop is a pure refinement: its returned cost is the
    /// minimum of the two sides, `used_joint` records the winner
    /// truthfully, and the placed mapping respects capacity.
    #[test]
    fn joint_never_loses_to_staged_and_stays_feasible(
        graph in arb_graph(20),
        topo_idx in 0u8..4,
        seed in 0u64..1000,
    ) {
        let crossbars = 4usize;
        let capacity = graph.num_neurons().div_ceil(crossbars as u32) + 1;
        let topo = topology_for(topo_idx, crossbars);
        let dist = DistanceLut::new(topo.as_ref());
        let problem = PartitionProblem::new(&graph, crossbars, capacity)
            .unwrap()
            .with_hops(&dist)
            .unwrap();
        let out = co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &small_cfg(seed, 2))
            .unwrap();
        prop_assert_eq!(out.used_joint, out.joint_cost < out.staged_cost);
        let winner = if out.used_joint { out.joint_cost } else { out.staged_cost };
        prop_assert_eq!(winner, out.joint_cost.min(out.staged_cost));
        prop_assert!(out.mapping.occupancy().iter().all(|&o| o <= capacity as usize));
        // init entry + one per iteration
        prop_assert_eq!(out.trace.len(), 13);
    }
}
