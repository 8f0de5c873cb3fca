//! Property-based tests over the partitioning core: every partitioner,
//! on arbitrary random spike graphs, must produce feasible mappings; the
//! cost function must satisfy its algebraic identities; refinement must be
//! monotone.

use neuromap::core::baselines::{
    GaConfig, GaPartitioner, NeutramsPartitioner, PacmanPartitioner, RandomPartitioner, SaConfig,
    SaPartitioner,
};
use neuromap::core::multilevel::{vcycle, MultilevelConfig};
use neuromap::core::partition::{FitnessKind, PartitionProblem, Partitioner};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::refine::refine;
use neuromap::core::{CoreError, SpikeGraph};
use proptest::prelude::*;

mod common;

/// This suite's graphs: sparser and quieter than `common::arb_graph`'s.
fn arb_graph(n_max: u32) -> impl Strategy<Value = SpikeGraph> {
    common::arb_graph_with(2, n_max, 4, 20)
}

/// Strategy: a feasible (crossbars, capacity) pair for a given n.
fn arb_arch(n: u32) -> impl Strategy<Value = (usize, u32)> {
    (2usize..=6).prop_flat_map(move |c| {
        let min_cap = n.div_ceil(c as u32);
        (Just(c), min_cap..=min_cap + n.max(2))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    #[test]
    fn all_partitioners_always_feasible(
        graph in arb_graph(24),
        seed in 0u64..1000,
    ) {
        let n = graph.num_neurons();
        let c = 3usize;
        let cap = n.div_ceil(3) + 2;
        let problem = PartitionProblem::new(&graph, c, cap).expect("feasible instance");
        let parts: Vec<Box<dyn Partitioner>> = vec![
            Box::new(PacmanPartitioner::new()),
            Box::new(NeutramsPartitioner::new()),
            Box::new(RandomPartitioner::new(seed)),
            Box::new(SaPartitioner::new(SaConfig { moves: 300, seed, ..SaConfig::default() })),
            Box::new(GaPartitioner::new(GaConfig { generations: 4, population: 8, seed, ..GaConfig::default() })),
            Box::new(PsoPartitioner::new(PsoConfig { swarm_size: 6, iterations: 5, seed, ..PsoConfig::default() })),
        ];
        for p in &parts {
            let m = p.partition(&problem).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            prop_assert!(problem.is_feasible(m.assignment()), "{}", p.name());
            prop_assert!(m.validate(
                &neuromap::hw::arch::Architecture::custom(
                    c, cap, neuromap::hw::arch::InterconnectKind::Mesh
                ).expect("valid arch")
            ).is_ok(), "{}", p.name());
        }
    }

    #[test]
    fn cost_identities(graph in arb_graph(20)) {
        let n = graph.num_neurons();
        let problem = PartitionProblem::new(&graph, 4, n).expect("feasible");
        // everything on one crossbar: nothing is cut
        let all_zero = vec![0u32; n as usize];
        prop_assert_eq!(problem.cut_spikes(&all_zero), 0);
        prop_assert_eq!(problem.cut_packets(&all_zero), 0);
        // fully scattered: every non-self synapse with a spiking source is cut
        let scattered: Vec<u32> = (0..n).map(|i| i % 4).collect();
        let expected: u64 = graph
            .synapses()
            .iter()
            .filter(|&&(a, b)| scattered[a as usize] != scattered[b as usize])
            .map(|&(a, _)| graph.count(a) as u64)
            .sum();
        prop_assert_eq!(problem.cut_spikes(&scattered), expected);
        // packets never exceed spikes (deduplication only removes)
        prop_assert!(problem.cut_packets(&scattered) <= problem.cut_spikes(&scattered));
    }

    #[test]
    fn move_delta_is_exact(
        graph in arb_graph(14),
        to in 0u32..3,
        idx in 0usize..14,
    ) {
        let n = graph.num_neurons();
        let i = idx % n as usize;
        let problem = PartitionProblem::new(&graph, 3, n).expect("feasible");
        let a: Vec<u32> = (0..n).map(|k| k % 3).collect();
        let before = problem.cut_spikes(&a) as i64;
        let mut b = a.clone();
        b[i] = to;
        let after = problem.cut_spikes(&b) as i64;
        prop_assert_eq!(problem.move_delta_spikes(&a, i, to), after - before);
    }

    #[test]
    fn refine_is_monotone_and_consistent(
        graph in arb_graph(18),
        passes in 1u32..6,
    ) {
        let n = graph.num_neurons();
        let cap = n.div_ceil(3) + 1;
        let problem = PartitionProblem::new(&graph, 3, cap).expect("feasible");
        for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
            let mut a: Vec<u32> = (0..n).map(|k| k % 3).collect();
            let before = problem.cost(kind, &a);
            let after = refine(&problem, kind, &mut a, passes);
            prop_assert!(after <= before, "{kind:?}");
            prop_assert!(problem.is_feasible(&a), "{kind:?}");
            // the incremental bookkeeping must agree with a fresh evaluation
            prop_assert_eq!(after, problem.cost(kind, &a), "{:?}", kind);
        }
    }

    #[test]
    fn pso_respects_capacity_on_arbitrary_instances(
        graph in arb_graph(16),
        (c, cap) in (8u32..=16).prop_flat_map(arb_arch),
    ) {
        let n = graph.num_neurons();
        prop_assume!(n as u64 <= c as u64 * cap as u64);
        let problem = match PartitionProblem::new(&graph, c, cap) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let pso = PsoPartitioner::new(PsoConfig { swarm_size: 5, iterations: 4, ..PsoConfig::default() });
        let m = pso.partition(&problem).expect("feasible instance solves");
        prop_assert!(m.occupancy().iter().all(|&o| o <= cap as usize));
    }
}

/// `CutHops` on a problem without a hop table is a configuration error
/// at every `Result`-returning optimizer entry point — the evaluators
/// underneath panic on it, so each entry point must check first.
#[test]
fn cut_hops_without_a_hop_table_is_an_error_at_every_entry_point() {
    let edges = (0..40u32).map(|i| (i, (i * 7 + 3) % 40)).collect();
    let graph = SpikeGraph::from_parts(40, edges, vec![5; 40]).expect("valid graph");
    let problem = PartitionProblem::new(&graph, 4, 12).expect("feasible instance");
    let fitness = FitnessKind::CutHops;
    let pso = PsoConfig {
        swarm_size: 6,
        iterations: 3,
        fitness,
        ..PsoConfig::default()
    };
    let outcomes = [
        ("pso", PsoPartitioner::new(pso).partition(&problem).err()),
        (
            "sa",
            SaPartitioner::new(SaConfig {
                moves: 50,
                fitness,
                ..SaConfig::default()
            })
            .partition(&problem)
            .err(),
        ),
        (
            "ga",
            GaPartitioner::new(GaConfig {
                generations: 2,
                population: 8,
                fitness,
                ..GaConfig::default()
            })
            .partition(&problem)
            .err(),
        ),
        (
            "vcycle",
            vcycle(
                &problem,
                &MultilevelConfig {
                    pso,
                    ..MultilevelConfig::default()
                },
            )
            .err(),
        ),
    ];
    for (name, err) in outcomes {
        assert!(
            matches!(
                err,
                Some(CoreError::InvalidParameter {
                    name: "fitness",
                    ..
                })
            ),
            "{name}: {err:?}"
        );
    }
}
