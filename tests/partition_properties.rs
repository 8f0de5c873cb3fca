//! Property-based tests over the partitioning core: every partitioner,
//! on arbitrary random spike graphs, must produce feasible mappings; the
//! cost function must satisfy its algebraic identities; refinement must be
//! monotone.

use neuromap::core::baselines::{NeutramsPartitioner, PacmanPartitioner};
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
            .filter(|&(a, b)| scattered[a as usize] != scattered[b as usize])
            .map(|(a, _)| graph.count(a) as u64)
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

/// FNV-1a over little-endian words: the fingerprint the frozen tables
/// below store instead of whole assignments.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// What `refine`, the V-cycle and placement's restart fan-out return
/// today, frozen: a changed line means a move, swap, tie-break or chunk
/// boundary changed.
/// Two graphs (a locality-biased 4 × 4 grid scenario whose 8-neuron home
/// tiles straddle the 9-neuron crossbars, so no baseline packing is
/// already optimal; a dense random graph with self-loops and duplicate
/// synapses on a tight 2 × 2 mesh) × every objective; thread counts share
/// one line because results must not depend on them.
#[test]
fn local_search_outcomes_are_frozen() {
    use neuromap::apps::synthetic::LargeArch;
    use neuromap::core::pipeline::TrafficMode;
    use neuromap::core::place::{optimize_placement, PlaceConfig, TrafficMatrix};
    use neuromap::hw::mapping::Mapping;
    use neuromap::noc::topology::{DistanceLut, Mesh2D};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FROZEN: &str = "
        grid4x4 CutSpikes refine: 8134 c543d7202ca49223
        grid4x4 CutSpikes vcycle chips=1: 6514 f847cbf0102a943c refine 20/36
        grid4x4 CutSpikes vcycle chips=2: 6514 f847cbf0102a943c refine 20/36
        grid4x4 CutPackets refine: 4288 b1430333155f74a3
        grid4x4 CutPackets vcycle chips=1: 3850 3c91a388ce667bb1 refine 31/88
        grid4x4 CutPackets vcycle chips=2: 3850 3c91a388ce667bb1 refine 31/88
        grid4x4 CutHops refine: 10712 c57445f2c1741642
        grid4x4 CutHops vcycle chips=1: 8781 9bba3b84ec8263fd refine 26/104
        grid4x4 CutHops vcycle chips=2: 8497 6059c2ecddde2985 refine 35/123
        grid4x4 place: 8382 restart 1 694bf5db47f7af85
        dense2x2 CutSpikes refine: 625 4c30ffe2e0e04be5
        dense2x2 CutSpikes vcycle chips=1: 604 7d06ad10bf676cc5 refine 20/41
        dense2x2 CutSpikes vcycle chips=2: 560 9c2f3efc772e6cd4 refine 29/73
        dense2x2 CutPackets refine: 388 fb5525b668e93075
        dense2x2 CutPackets vcycle chips=1: 326 760a646f44f215c5 refine 16/35
        dense2x2 CutPackets vcycle chips=2: 365 3907ada1cab2d925 refine 15/29
        dense2x2 CutHops refine: 451 c98c6243bfa91b55
        dense2x2 CutHops vcycle chips=1: 432 a89cd38a0d4f69a5 refine 13/42
        dense2x2 CutHops vcycle chips=2: 418 1933cedbc29937e7 refine 24/47
        dense2x2 place: 741 restart 0 d71cebfb0d9323d5
    ";

    let grid = LargeArch {
        side: 4,
        neurons_per_crossbar: 8,
        synapses_per_neuron: 12,
        fill_percent: 85,
    };
    let grid_graph = grid.spike_graph(2018).expect("scenario builds");
    let mut rng = StdRng::seed_from_u64(0xF02E);
    let edges = (0..220)
        .map(|_| (rng.gen_range(0..48), rng.gen_range(0..48)))
        .collect();
    let counts = (0..48).map(|_| rng.gen_range(0..12)).collect();
    let dense_graph = SpikeGraph::from_parts(48, edges, counts).expect("endpoints in range");

    let mut lines: Vec<String> = Vec::new();
    for (name, graph, c, cap) in [
        ("grid4x4", &grid_graph, 16usize, 9u32),
        ("dense2x2", &dense_graph, 4, 13),
    ] {
        let lut = DistanceLut::new(&Mesh2D::for_crossbars(c));
        let problem = PartitionProblem::new(graph, c, cap)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        let n = graph.num_neurons();
        let scattered: Vec<u32> = (0..n).map(|i| i % c as u32).collect();
        for fitness in [
            FitnessKind::CutSpikes,
            FitnessKind::CutPackets,
            FitnessKind::CutHops,
        ] {
            let mut freeze = |what: &str, cost: u64, assignment: &[u32], extra: String| {
                assert_eq!(cost, problem.cost(fitness, assignment), "{name} {what}");
                assert!(problem.is_feasible(assignment), "{name} {what}");
                let hash = fnv(assignment.iter().copied());
                lines.push(format!(
                    "{name} {fitness:?} {what}: {cost} {hash:016x}{extra}"
                ));
            };

            let mut refined = scattered.clone();
            let cost = refine(&problem, fitness, &mut refined, 4);
            freeze("refine", cost, &refined, String::new());

            for chips in [1usize, 2] {
                for threads in [1usize, 2] {
                    let cfg = MultilevelConfig {
                        pso: PsoConfig {
                            swarm_size: 8,
                            iterations: 6,
                            threads,
                            fitness,
                            ..PsoConfig::default()
                        },
                        min_coarse_neurons: 8,
                        threads,
                        chips,
                        ..MultilevelConfig::default()
                    };
                    let out = vcycle(&problem, &cfg).expect("vcycle runs");
                    let moves: (u64, u64) = out.levels.iter().fold((0, 0), |(p, a), l| {
                        (p + l.refine_proposed, a + l.refine_accepted)
                    });
                    freeze(
                        &format!("vcycle chips={chips}"),
                        out.cost,
                        out.mapping.assignment(),
                        format!(" refine {}/{}", moves.1, moves.0),
                    );
                }
            }
        }

        // more workers than restarts: the fan-out must still hand every
        // restart to exactly one worker, in restart order
        let packed = Mapping::from_assignment((0..n).map(|i| i / cap).collect(), c).unwrap();
        let traffic = TrafficMatrix::from_mapping(graph, &packed, TrafficMode::PerCrossbar);
        let cfg = PlaceConfig {
            restarts: 2,
            sa_moves: 500,
            threads: 5,
            ..PlaceConfig::default()
        };
        let out = optimize_placement(&traffic, &lut, &cfg).expect("placement runs");
        lines.push(format!(
            "{name} place: {} restart {} {:016x}",
            out.optimized_cost,
            out.winning_restart,
            fnv(out.placement.as_slice().iter().copied())
        ));
    }

    // thread counts must agree, so each (what, threads) group folds to one line
    lines.dedup();
    let frozen: Vec<&str> = FROZEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines, frozen, "actual outcomes:\n{}\n", lines.join("\n"));
}

/// What the hop-aware local searches return today, frozen at a size where
/// a neuron sees many open targets: a locality-biased 8 × 8 grid (64
/// crossbars, 512 neurons) packed 8 per crossbar, so capacity 10 leaves
/// 20 % slack on every crossbar and capacity 8 none; the same graph with
/// self-loops and duplicate synapses added, where every fifth neuron
/// keeps no target on its packed crossbar except itself. `refine`, the
/// V-cycle on one and on four chips, and the joint loop, all under
/// `CutHops`. A changed line means a move price, a tie-break or a
/// capacity check changed.
#[test]
fn hop_local_search_outcomes_are_frozen() {
    use neuromap::apps::synthetic::LargeArch;
    use neuromap::core::coopt::{co_optimize, CooptConfig};
    use neuromap::core::pipeline::TrafficMode;
    use neuromap::core::place::PlaceConfig;
    use neuromap::noc::topology::{DistanceLut, Mesh2D};

    const FROZEN: &str = "
        grid8x8 slack refine: 85725 436fae6cb72eadbe
        grid8x8 slack vcycle chips=1: 117581 43a4bc4bc9c0f3e3 refine 259/2071
        grid8x8 slack vcycle chips=4: 132278 17dce1fc3ec8fced refine 101/934
        grid8x8 slack coopt: 134244 147cc51e3088de54 staged 134244 joint 136672 used_joint false placement 79cff97be6a94255
        loops8x8 slack refine: 83198 9f376143e0ac1727
        loops8x8 slack vcycle chips=1: 113855 936d1280e41c727b refine 225/2218
        loops8x8 slack vcycle chips=4: 119948 dd5b793c363e8ed5 refine 135/1173
        loops8x8 slack coopt: 127263 d6bcf4bfb3e04ee0 staged 127263 joint 129279 used_joint false placement 6bad55bfd71faed5
        grid8x8 tight refine: 108742 ec6cce2ecd7c2b25
        grid8x8 tight vcycle chips=1: 230328 d202c9c4af634cc5 refine 0/0
        grid8x8 tight vcycle chips=4: 166893 5f9a6d9d14470075 refine 0/0
        grid8x8 tight coopt: 200970 aec25e7700c4a1f5 staged 200970 joint 200970 used_joint false placement 8cffe8b68acb1275
    ";

    let grid = LargeArch {
        side: 8,
        neurons_per_crossbar: 10,
        synapses_per_neuron: 12,
        fill_percent: 80,
    }
    .spike_graph(2018)
    .expect("scenario builds");
    let n = grid.num_neurons();
    let c = 64usize;
    let packed: Vec<u32> = (0..n).map(|i| i / 8).collect();
    let mut synapses: Vec<(u32, u32)> = grid
        .synapses()
        .filter(|&(i, j)| i % 5 != 0 || packed[i as usize] != packed[j as usize])
        .collect();
    for i in 0..n {
        if i % 5 == 0 {
            synapses.extend(std::iter::repeat_n((i, i), 1 + (i % 10 == 0) as usize));
        }
        if i % 3 == 0 {
            if let Some(first) = grid.synapses().find(|&(p, _)| p == i) {
                synapses.push(first);
            }
        }
    }
    let counts = (0..n).map(|i| grid.count(i)).collect();
    let loops = SpikeGraph::from_parts(n, synapses, counts).expect("endpoints in range");

    let lut = DistanceLut::new(&Mesh2D::for_crossbars(c));
    let fitness = FitnessKind::CutHops;
    let mut lines: Vec<String> = Vec::new();
    for (name, graph, cap) in [
        ("grid8x8 slack", &grid, 10u32),
        ("loops8x8 slack", &loops, 10),
        ("grid8x8 tight", &grid, 8),
    ] {
        let problem = PartitionProblem::new(graph, c, cap)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        let mut freeze = |what: &str, cost: u64, assignment: &[u32], extra: String| {
            assert_eq!(cost, problem.cost(fitness, assignment), "{name} {what}");
            assert!(problem.is_feasible(assignment), "{name} {what}");
            let hash = fnv(assignment.iter().copied());
            lines.push(format!("{name} {what}: {cost} {hash:016x}{extra}"));
        };

        let mut refined = packed.clone();
        let cost = refine(&problem, fitness, &mut refined, 4);
        freeze("refine", cost, &refined, String::new());

        let pso = |threads| PsoConfig {
            swarm_size: 6,
            iterations: 4,
            threads,
            fitness,
            seed_baselines: false,
            polish_passes: 2,
            ..PsoConfig::default()
        };
        for chips in [1usize, 4] {
            for threads in [1usize, 2] {
                let cfg = MultilevelConfig {
                    pso: pso(threads),
                    min_coarse_neurons: 64,
                    threads,
                    chips,
                    ..MultilevelConfig::default()
                };
                let out = vcycle(&problem, &cfg).expect("vcycle runs");
                let moves: (u64, u64) = out.levels.iter().fold((0, 0), |(p, a), l| {
                    (p + l.refine_proposed, a + l.refine_accepted)
                });
                freeze(
                    &format!("vcycle chips={chips}"),
                    out.cost,
                    out.mapping.assignment(),
                    format!(" refine {}/{}", moves.1, moves.0),
                );
            }
        }

        for threads in [1usize, 2] {
            let cfg = CooptConfig {
                pso: pso(threads),
                place: PlaceConfig {
                    restarts: 1,
                    sa_moves: 300,
                    threads,
                    ..PlaceConfig::default()
                },
                replace_every: 2,
                multilevel: None,
            };
            let out = co_optimize(&problem, &lut, TrafficMode::PerCrossbar, &cfg)
                .expect("joint loop runs");
            freeze(
                "coopt",
                problem.cost(fitness, out.mapping.assignment()),
                out.mapping.assignment(),
                format!(
                    " staged {} joint {} used_joint {} placement {:016x}",
                    out.staged_cost,
                    out.joint_cost,
                    out.used_joint,
                    fnv(out.placement.as_slice().iter().copied())
                ),
            );
        }
    }

    // thread counts must agree, so each (what, threads) group folds to one line
    lines.dedup();
    let frozen: Vec<&str> = FROZEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines, frozen, "actual outcomes:\n{}\n", lines.join("\n"));
}

/// What the swarm itself returns today, frozen without the polish that
/// would hide it: a changed line means a decode, a repair walk, an RNG
/// draw or a reduction changed. The two graphs above plus a 9 × 9 grid
/// (81 crossbars: ten 8-wide chunks of a velocity row and a 1-wide
/// remainder, nearly full) × every objective × warm start on and off, 30
/// iterations so the velocities decay towards 0 and late rounds reject
/// most candidates; then the joint loop, which drives the same swarm in
/// segments. Thread counts share one line.
#[test]
fn swarm_outcomes_are_frozen() {
    use neuromap::apps::synthetic::LargeArch;
    use neuromap::core::coopt::{co_optimize, CooptConfig};
    use neuromap::core::pipeline::TrafficMode;
    use neuromap::core::place::PlaceConfig;
    use neuromap::noc::topology::{DistanceLut, Mesh2D};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FROZEN: &str = "
        grid4x4 CutSpikes pso warm=true: 7665 6272b0ac53aa5a65 trace 5e69ff832c151327 converged 0
        grid4x4 CutSpikes pso warm=false: 10792 5be39442a96f417f trace 91ad9b79d670a531 converged 13
        grid4x4 CutPackets pso warm=true: 4354 6272b0ac53aa5a65 trace 01c0e501be722d98 converged 0
        grid4x4 CutPackets pso warm=false: 6564 afca12cc9d2c6e67 trace 5ba0d3405f1e5aee converged 25
        grid4x4 CutHops pso warm=true: 8689 6272b0ac53aa5a65 trace 8c39c0b03b39391b converged 0
        grid4x4 CutHops pso warm=false: 16192 75c317e4bce9d9a5 trace aafc061988da82ed converged 24
        grid4x4 coopt: staged 14940 joint 15301 used_joint false 666571163c9b756d placement 5f0d2c2c70aca755 trace 5789d4da9dfc62f7
        dense2x2 CutSpikes pso warm=true: 748 b7eac9aee86473e5 trace 076f205cdee5d854 converged 27
        dense2x2 CutSpikes pso warm=false: 721 91e770c32bcee2f5 trace 6cc0d7b6b1ffcbde converged 26
        dense2x2 CutPackets pso warm=true: 439 eb263fbce31896a5 trace 85091a07324e5700 converged 16
        dense2x2 CutPackets pso warm=false: 452 2ec6b1b8f14f73f7 trace 1ac2c4b274197d81 converged 18
        dense2x2 CutHops pso warm=true: 566 8c4ed41f82deaa27 trace 4b7d379153bee59f converged 17
        dense2x2 CutHops pso warm=false: 566 8c4ed41f82deaa27 trace 4b7d379153bee59f converged 17
        grid9x9 CutSpikes pso warm=true: 8495 f8ce912ed0116a5d trace 53ac5b85017b1f85 converged 0
        grid9x9 CutSpikes pso warm=false: 14310 119aed151d99f70f trace d5958d4d8d4f1ace converged 26
        grid9x9 CutPackets pso warm=true: 7614 f8ce912ed0116a5d trace 0c5a192645429668 converged 0
        grid9x9 CutPackets pso warm=false: 12100 2d9e910ba269efe9 trace 43674c5e175af704 converged 14
        grid9x9 CutHops pso warm=true: 21195 f8ce912ed0116a5d trace 0f0f18d9a66aa694 converged 0
        grid9x9 CutHops pso warm=false: 68100 4e8b7ddcc28bb26f trace dd24a374b27cdcec converged 13
    ";

    let grid = |side, neurons_per_crossbar, synapses_per_neuron, fill_percent| {
        LargeArch {
            side,
            neurons_per_crossbar,
            synapses_per_neuron,
            fill_percent,
        }
        .spike_graph(2018)
        .expect("scenario builds")
    };
    let grid4_graph = grid(4, 8, 12, 85);
    let grid9_graph = grid(9, 4, 6, 90);
    let mut rng = StdRng::seed_from_u64(0xF02E);
    let edges = (0..220)
        .map(|_| (rng.gen_range(0..48), rng.gen_range(0..48)))
        .collect();
    let counts = (0..48).map(|_| rng.gen_range(0..12)).collect();
    let dense_graph = SpikeGraph::from_parts(48, edges, counts).expect("endpoints in range");

    let words = |values: &[u64]| fnv(values.iter().flat_map(|&v| [v as u32, (v >> 32) as u32]));
    let mut lines: Vec<String> = Vec::new();
    for (name, graph, c, cap) in [
        ("grid4x4", &grid4_graph, 16usize, 9u32),
        ("dense2x2", &dense_graph, 4, 13),
        ("grid9x9", &grid9_graph, 81, 4),
    ] {
        let lut = DistanceLut::new(&Mesh2D::for_crossbars(c));
        let problem = PartitionProblem::new(graph, c, cap)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        for fitness in [
            FitnessKind::CutSpikes,
            FitnessKind::CutPackets,
            FitnessKind::CutHops,
        ] {
            for seed_baselines in [true, false] {
                for threads in [1usize, 3] {
                    let cfg = PsoConfig {
                        swarm_size: 12,
                        iterations: 30,
                        threads,
                        fitness,
                        seed_baselines,
                        polish_passes: 0,
                        ..PsoConfig::default()
                    };
                    let (m, trace) = PsoPartitioner::new(cfg)
                        .partition_traced(&problem)
                        .expect("pso runs");
                    assert!(problem.is_feasible(m.assignment()), "{name} {fitness:?}");
                    let cost = problem.cost(fitness, m.assignment());
                    assert_eq!(Some(&cost), trace.best_per_iteration.last());
                    lines.push(format!(
                        "{name} {fitness:?} pso warm={seed_baselines}: {cost} {:016x} trace {:016x} converged {}",
                        fnv(m.assignment().iter().copied()),
                        words(&trace.best_per_iteration),
                        trace.converged_at
                    ));
                }
            }
        }
        if name != "grid4x4" {
            continue;
        }
        for threads in [1usize, 3] {
            let cfg = CooptConfig {
                pso: PsoConfig {
                    swarm_size: 12,
                    iterations: 30,
                    threads,
                    fitness: FitnessKind::CutHops,
                    seed_baselines: false,
                    polish_passes: 0,
                    ..PsoConfig::default()
                },
                place: PlaceConfig {
                    restarts: 2,
                    sa_moves: 500,
                    threads,
                    ..PlaceConfig::default()
                },
                replace_every: 3,
                multilevel: None,
            };
            let out = co_optimize(&problem, &lut, TrafficMode::PerCrossbar, &cfg)
                .expect("joint loop runs");
            lines.push(format!(
                "{name} coopt: staged {} joint {} used_joint {} {:016x} placement {:016x} trace {:016x}",
                out.staged_cost,
                out.joint_cost,
                out.used_joint,
                fnv(out.mapping.assignment().iter().copied()),
                fnv(out.placement.as_slice().iter().copied()),
                words(&out.trace)
            ));
        }
    }

    lines.dedup();
    let frozen: Vec<&str> = FROZEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines, frozen, "actual outcomes:\n{}\n", lines.join("\n"));
}

/// A swarm whose `swarm × N × C` buffers cannot be allocated is a
/// configuration error wherever a swarm is built: the size is only known
/// once the problem is, so `PsoConfig::validate` cannot see it, and the
/// allocation used to panic (`capacity overflow`) or wrap instead.
#[test]
fn unallocatable_swarm_is_an_error_at_every_entry_point() {
    use neuromap::core::coopt::{co_optimize, CooptConfig};
    use neuromap::core::pipeline::TrafficMode;
    use neuromap::noc::topology::{DistanceLut, Mesh2D};

    let edges = (0..40u32).map(|i| (i, (i * 7 + 3) % 40)).collect();
    let graph = SpikeGraph::from_parts(40, edges, vec![5; 40]).expect("valid graph");
    let lut = DistanceLut::new(&Mesh2D::for_crossbars(4));
    let problem = PartitionProblem::new(&graph, 4, 12)
        .expect("feasible instance")
        .with_hops(&lut)
        .expect("lut covers the crossbars");
    // no representable length; a product that wraps to a small one
    for swarm_size in [usize::MAX, usize::MAX / (40 * 4) + 1] {
        let pso = PsoConfig {
            swarm_size,
            iterations: 2,
            fitness: FitnessKind::CutHops,
            ..PsoConfig::default()
        };
        assert!(
            pso.validate().is_ok(),
            "the size is fine until N and C are known"
        );
        let multilevel = |chips| MultilevelConfig {
            pso,
            min_coarse_neurons: 8,
            chips,
            ..MultilevelConfig::default()
        };
        let coopt = |multilevel| CooptConfig {
            pso,
            multilevel,
            ..CooptConfig::default()
        };
        let joint = |cfg| co_optimize(&problem, &lut, TrafficMode::PerCrossbar, &cfg).err();
        let outcomes = [
            (
                "pso",
                PsoPartitioner::new(pso).partition_traced(&problem).err(),
            ),
            ("vcycle", vcycle(&problem, &multilevel(1)).err()),
            ("vcycle, chip level", vcycle(&problem, &multilevel(2)).err()),
            ("co_optimize", joint(coopt(None))),
            ("co_optimize over vcycle", joint(coopt(Some(multilevel(1))))),
        ];
        for (name, err) in outcomes {
            assert!(
                matches!(
                    err,
                    Some(CoreError::InvalidParameter {
                        name: "swarm_size",
                        ..
                    })
                ),
                "{name} at swarm_size {swarm_size}: {err:?}"
            );
        }
    }
}
