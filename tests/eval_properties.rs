//! Property tests for the incremental fitness engine: on arbitrary
//! graphs, for every `FitnessKind`, the cost a `Candidate` maintains
//! must equal a full `cut_spikes`/`cut_packets`/`cut_hops` recomputation
//! across random move sequences, and so must the batched swarm
//! evaluator's.

use neuromap::core::eval::{Candidate, EvalEngine, SwarmEval, SwarmKernel, SwarmScratch};
use neuromap::core::partition::{FitnessKind, PartitionProblem};
use neuromap::noc::topology::{DistanceLut, Mesh2D};
use proptest::prelude::*;

mod common;
use common::arb_graph;

const KINDS: [FitnessKind; 3] = [
    FitnessKind::CutSpikes,
    FitnessKind::CutPackets,
    FitnessKind::CutHops,
];

/// The hop table every problem here carries so `CutHops` runs beside the
/// other objectives (they ignore it): a 2-D mesh over the crossbars.
fn mesh_lut(crossbars: usize) -> DistanceLut {
    DistanceLut::new(&Mesh2D::for_crossbars(crossbars))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(40)))]

    #[test]
    fn applied_moves_match_full_recompute(
        graph in arb_graph(20),
        moves in proptest::collection::vec((0u32..20, 0u32..4), 1..60),
    ) {
        let n = graph.num_neurons();
        let lut = mesh_lut(4);
        // the sequence through `Candidate`, at capacity N (only the home
        // crossbar is ever closed) and on a capacity tight enough that
        // crossbars fill up: every proposal is one migration
        for cap in [n, n.div_ceil(4) + 1] {
            let problem = PartitionProblem::new(&graph, 4, cap)
                .expect("feasible")
                .with_hops(&lut)
                .expect("lut covers the crossbars");
            for kind in KINDS {
                let engine = EvalEngine::new(problem, kind);
                let mut a: Vec<u32> = (0..n).map(|i| i % 4).collect();
                let mut candidate = Candidate::new(&engine, &mut a);
                for (step, &(i, to)) in moves.iter().enumerate() {
                    let i = (i % n) as usize;
                    let home = candidate.assignment()[i];
                    let full = candidate.occupancy()[to as usize] >= cap;
                    let delta = candidate.move_delta(i, to);
                    prop_assert_eq!(delta.is_none(), to == home || full, "{:?}: {} to {}", kind, i, to);
                    let improving = (0..4)
                        .filter_map(|t| candidate.move_delta(i, t).map(|d| (t, d)))
                        .filter(|&(_, d)| d < 0)
                        .min_by_key(|&(t, d)| (d, t));
                    prop_assert_eq!(candidate.best_move(i, 0..4), improving, "{:?}: {}", kind, i);
                    if let Some(delta) = delta {
                        let before = candidate.cost() as i64;
                        candidate.apply(i, to, delta);
                        prop_assert_eq!(
                            candidate.cost(),
                            problem.cost(kind, candidate.assignment()),
                            "{:?}: state drifted after moving {} to {}", kind, i, to
                        );
                        prop_assert_eq!(candidate.cost() as i64, before + delta, "{:?}", kind);
                    }
                    let now = candidate.assignment();
                    prop_assert_eq!(candidate.cost(), problem.cost(kind, now), "{:?} step {}", kind, step);
                    let mut recount = [0u32; 4];
                    now.iter().for_each(|&k| recount[k as usize] += 1);
                    prop_assert_eq!(candidate.occupancy(), &recount[..], "{:?} step {}", kind, step);
                    prop_assert!(problem.is_feasible(now), "{:?} step {}", kind, step);
                }
            }
        }
    }

    /// `Candidate::best_move` against the brute-force reference — the
    /// first least `cost(after) − cost(before) < 0` over the open targets
    /// of a list, in list order — for every neuron, every objective and
    /// random target lists (duplicates, the home crossbar, full crossbars,
    /// any order), on a feasible random assignment whose last crossbar
    /// attracts half the neurons and so tends to fill. Then, under
    /// `CutHops`, a long random sequence of applied moves, re-checking
    /// every open move's delta and one neuron's best move after each
    /// step.
    #[test]
    fn best_move_is_the_first_least_cost_open_target(
        graph in arb_graph(24),
        crossbars in 2u32..=9,
        slack in 0u32..3,
        prefer in proptest::collection::vec(0u32..18, 24),
        lists in proptest::collection::vec(proptest::collection::vec(0u32..9, 0..20), 1..6),
        steps in proptest::collection::vec((0u32..24, 0u32..24, 0u32..9), 0..120),
    ) {
        let n = graph.num_neurons();
        let c = crossbars;
        let cap = n.div_ceil(c) + slack;
        let lut = mesh_lut(c as usize);
        let problem = PartitionProblem::new(&graph, c as usize, cap)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        let mut start = vec![0u32; n as usize];
        let mut fill = vec![0u32; c as usize];
        for i in 0..n as usize {
            let mut k = prefer[i].min(c - 1);
            while fill[k as usize] == cap {
                k = (k + 1) % c;
            }
            fill[k as usize] += 1;
            start[i] = k;
        }
        let mut lists: Vec<Vec<u32>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(|k| k % c).collect())
            .collect();
        lists.push((0..c).collect());
        lists.push((0..c).rev().collect());

        let reference = |candidate: &Candidate<'_, '_, '_>, kind, i: usize, list: &[u32]| {
            let now = candidate.assignment();
            let before = problem.cost(kind, now) as i64;
            let mut best: Option<(u32, i64)> = None;
            for &to in list {
                if to == now[i] || candidate.occupancy()[to as usize] >= cap {
                    continue;
                }
                let mut after = now.to_vec();
                after[i] = to;
                let d = problem.cost(kind, &after) as i64 - before;
                if d < 0 && best.is_none_or(|(_, b)| d < b) {
                    best = Some((to, d));
                }
            }
            best
        };

        for kind in KINDS {
            let engine = EvalEngine::new(problem, kind);
            let mut a = start.clone();
            let candidate = Candidate::new(&engine, &mut a);
            for i in 0..n as usize {
                for list in &lists {
                    prop_assert_eq!(
                        candidate.best_move(i, list.iter().copied()),
                        reference(&candidate, kind, i, list),
                        "{:?}: neuron {} over {:?}", kind, i, list
                    );
                }
            }
        }

        let engine = EvalEngine::new(problem, FitnessKind::CutHops);
        let mut a = start.clone();
        let mut candidate = Candidate::new(&engine, &mut a);
        for (step, &(i, j, to)) in steps.iter().enumerate() {
            let (i, j, to) = ((i % n) as usize, (j % n) as usize, to % c);
            if let Some(d) = candidate.move_delta(i, to) {
                candidate.apply(i, to, d);
            }
            let now = candidate.assignment().to_vec();
            let cost = problem.cut_hops(&now) as i64;
            prop_assert_eq!(candidate.cost() as i64, cost, "step {}", step);
            for k in 0..n as usize {
                for to in 0..c {
                    if let Some(d) = candidate.move_delta(k, to) {
                        let mut after = now.clone();
                        after[k] = to;
                        prop_assert_eq!(
                            d, problem.cut_hops(&after) as i64 - cost,
                            "step {}: neuron {} to {}", step, k, to
                        );
                    }
                }
            }
            let list = &lists[step % lists.len()];
            prop_assert_eq!(
                candidate.best_move(j, list.iter().copied()),
                reference(&candidate, FitnessKind::CutHops, j, list),
                "step {}: neuron {} over {:?}", step, j, list
            );
        }
    }

    #[test]
    fn batched_swarm_eval_matches_scalar(
        graph in arb_graph(16),
        lanes in 1usize..70,
        seed in 0u64..500,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = graph.num_neurons();
        let lut = mesh_lut(6);
        let problem = PartitionProblem::new(&graph, 6, n)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<u32> =
            (0..lanes * n as usize).map(|_| rng.gen_range(0..6u32)).collect();
        for kind in KINDS {
            let evaluator = SwarmEval::new(problem, kind);
            let mut out = vec![0u64; lanes];
            let mut scratch = SwarmScratch::default();
            evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
            for lane in 0..lanes {
                let row = &positions[lane * n as usize..(lane + 1) * n as usize];
                prop_assert_eq!(out[lane], problem.cost(kind, row), "{:?} lane {}", kind, lane);
            }
        }
    }

    // ---- large_arch: the lifted multi-word envelope -------------------
    //
    // 65–300 crossbars straddles every byte-tile mask stride (2–4 words)
    // plus the word-tile kernel past the 256-crossbar byte-tile ceiling
    // (where `CutHops` takes the scalar arm); the evaluator must equal
    // the scalar `PartitionProblem::cost` everywhere, for all three objectives,
    // including lane counts that leave a partial final tile.

    #[test]
    fn large_arch_batched_eval_matches_scalar(
        graph in arb_graph(40),
        crossbars in 65usize..=300,
        lanes in 1usize..130,
        seed in 0u64..500,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = graph.num_neurons();
        let lut = mesh_lut(crossbars);
        let problem = PartitionProblem::new(&graph, crossbars, n)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<u32> = (0..lanes * n as usize)
            .map(|_| rng.gen_range(0..crossbars as u32))
            .collect();
        for kind in KINDS {
            let evaluator = SwarmEval::new(problem, kind);
            prop_assert_eq!(
                evaluator.kernel(),
                if crossbars <= 256 {
                    SwarmKernel::ByteTile
                } else if kind == FitnessKind::CutHops {
                    SwarmKernel::Scalar
                } else {
                    SwarmKernel::WordTile
                },
                "kernel map regressed ({:?}, {} crossbars)",
                kind, crossbars
            );
            let mut out = vec![0u64; lanes];
            let mut scratch = SwarmScratch::default();
            evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
            for lane in 0..lanes {
                let row = &positions[lane * n as usize..(lane + 1) * n as usize];
                prop_assert_eq!(
                    out[lane],
                    problem.cost(kind, row),
                    "{:?} c={} lane {}", kind, crossbars, lane
                );
            }
        }
    }

    #[test]
    fn large_arch_incremental_engine_matches_recompute(
        graph in arb_graph(30),
        crossbars in 65usize..=300,
        moves in proptest::collection::vec((0u32..30, 0u32..300), 1..40),
    ) {
        let n = graph.num_neurons();
        let lut = mesh_lut(crossbars);
        let problem = PartitionProblem::new(&graph, crossbars, n)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        for kind in KINDS {
            let engine = EvalEngine::new(problem, kind);
            let mut a: Vec<u32> = (0..n).map(|i| i % crossbars as u32).collect();
            let mut candidate = Candidate::new(&engine, &mut a);
            for &(i, to) in &moves {
                let i = (i % n) as usize;
                let to = to % crossbars as u32;
                match candidate.move_delta(i, to) {
                    Some(d) => candidate.apply(i, to, d),
                    None => prop_assert_eq!(candidate.assignment()[i], to, "{:?}: only home is closed", kind),
                }
                prop_assert_eq!(candidate.cost(), problem.cost(kind, candidate.assignment()), "{:?}", kind);
            }
        }
    }

    #[test]
    fn move_then_inverse_is_identity(
        graph in arb_graph(18),
        i in 0u32..18,
        to in 0u32..4,
    ) {
        let n = graph.num_neurons();
        let i = (i % n) as usize;
        let lut = mesh_lut(4);
        let problem = PartitionProblem::new(&graph, 4, n)
            .expect("feasible")
            .with_hops(&lut)
            .expect("lut covers the crossbars");
        for kind in KINDS {
            let engine = EvalEngine::new(problem, kind);
            let original: Vec<u32> = (0..n).map(|i| i % 4).collect();
            let mut a = original.clone();
            let mut candidate = Candidate::new(&engine, &mut a);
            let cost0 = candidate.cost();
            let from = original[i];
            match candidate.move_delta(i, to) {
                Some(d1) => {
                    candidate.apply(i, to, d1);
                    let d2 = candidate.move_delta(i, from).expect("the old home is open");
                    prop_assert_eq!(d1, -d2, "{:?}: deltas must be antisymmetric", kind);
                    candidate.apply(i, from, d2);
                }
                None => prop_assert_eq!(to, from, "{:?}: only home is closed", kind),
            }
            prop_assert_eq!(candidate.cost(), cost0, "{:?}", kind);
            prop_assert_eq!(candidate.assignment(), &original[..], "{:?}", kind);
        }
    }
}
