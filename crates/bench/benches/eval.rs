//! Evaluation-engine benchmarks: the same-run pairs behind
//! `BENCH_eval.json` — full recompute vs incremental move pricing, scalar
//! vs batched swarm scoring and the scalar vs masked-row velocity sweep on
//! the digit app (`hd_tree_paper`'s graph) and on the 256-crossbar
//! `synth_16x16grid` scenario (also dense vs adjacency placement pricing,
//! adjacency vs slot-cost-table greedy placement polish, and per-target
//! vs per-neuron `CutHops` polish pricing),
//! staged vs joint co-optimization, flat PSO vs the V-cycle at 1024
//! crossbars, and the u16 word-tile kernels (`CutSpikes`, `CutPackets`) on
//! the 4-chip fabric.
//!
//! The row rule and the gate table are `neuromap_bench::ledger`'s
//! ([`ledger::EVAL`]): every row is one side of a pair, every pair is
//! gated after the JSON is written, and a failed gate exits non-zero.
//! End-to-end timings are mapbench's (`benchmark/`), not this file's.
//! What the benches *assert before timing* — the batched envelope at 256
//! crossbars, bit-identity with the scalar reference, each pair of
//! placement pricers accepting the same swaps, the two polish pricers
//! reaching the same assignment, V-cycle cut ≤ flat cut — are
//! correctness checks: a regression fails loudly instead of being timed.
//!
//! Knob: `NEUROMAP_BENCH_FAST=1` — 1-sample smoke run (the CI gate).

use criterion::{black_box, BenchmarkId, Criterion};
use neuromap_apps::digit_recognition::DigitRecognition;
use neuromap_apps::synthetic::{LargeArch, MultiChip};
use neuromap_apps::App;
use neuromap_bench::sweep::{self, Swarm};
use neuromap_bench::{arch_for, ledger, SEED};
use neuromap_core::coopt::{co_optimize, CooptConfig};
use neuromap_core::decode::DecodeScratch;
use neuromap_core::eval::{Candidate, EvalEngine, SwarmEval, SwarmKernel, SwarmScratch};
use neuromap_core::multilevel::{vcycle, MultilevelConfig};
use neuromap_core::partition::{FitnessKind, PartitionProblem};
use neuromap_core::pipeline::TrafficMode;
use neuromap_core::place::{
    optimize_placement, swap_delta, PlaceConfig, SlotCostTable, TrafficAdjacency, TrafficMatrix,
    SA_ALPHA, SA_T0,
};
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_noc::topology::{DistanceLut, HierTopology, Mesh2D, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random positions for a swarm (capacity is irrelevant to evaluation
/// cost).
fn random_swarm(n: usize, c: usize, lanes: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..lanes * n).map(|_| rng.gen_range(0..c as u32)).collect()
}

fn bench_full_vs_incremental(c: &mut Criterion, name: &str, problem: &PartitionProblem<'_>) {
    let n = problem.graph().num_neurons() as usize;
    let nc = problem.num_crossbars();
    let mut group = c.benchmark_group(format!("move/{name}"));
    group.sample_size(10);
    for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
        let tag = format!("{kind:?}");
        // full recompute per move (what the seed optimizers paid)
        group.bench_with_input(BenchmarkId::new("full", &tag), &kind, |b, &kind| {
            let a: Vec<u32> = (0..n).map(|i| (i % nc) as u32).collect();
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                let mut m = a.clone();
                m[i] = (m[i] + 1) % nc as u32;
                black_box(problem.cost(kind, &m))
            });
        });
        // O(deg) incremental move through a `Candidate`, to the first
        // open crossbar after the neuron's home
        group.bench_with_input(BenchmarkId::new("incremental", &tag), &kind, |b, &kind| {
            let engine = EvalEngine::new(*problem, kind);
            let mut a: Vec<u32> = (0..n).map(|i| (i % nc) as u32).collect();
            let mut candidate = Candidate::new(&engine, &mut a);
            let nc = nc as u32;
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                let home = candidate.assignment()[i];
                let next = (1..nc)
                    .map(|s| (home + s) % nc)
                    .find_map(|to| candidate.move_delta(i, to).map(|d| (to, d)));
                if let Some((to, d)) = next {
                    candidate.apply(i, to, d);
                }
                black_box(next)
            });
        });
    }
    group.finish();
}

/// Scalar-vs-batched swarm scoring on a problem instance.
fn bench_swarm_eval(c: &mut Criterion, name: &str, problem: &PartitionProblem<'_>, lanes: usize) {
    let n = problem.graph().num_neurons() as usize;
    let positions = random_swarm(n, problem.num_crossbars(), lanes, 7);
    let mut group = c.benchmark_group(format!("swarm_eval/{name}"));
    group.sample_size(10);
    for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
        let tag = format!("{kind:?}");
        // per-candidate scalar loop (the seed's evaluation strategy)
        group.bench_with_input(BenchmarkId::new("scalar", &tag), &kind, |b, &kind| {
            b.iter(|| {
                let mut acc = 0u64;
                for lane in 0..lanes {
                    acc ^= problem.cost(kind, &positions[lane * n..(lane + 1) * n]);
                }
                black_box(acc)
            });
        });
        // batched neuron-major tiles
        group.bench_with_input(BenchmarkId::new("batched", &tag), &kind, |b, &kind| {
            let evaluator = SwarmEval::new(*problem, kind);
            let mut scratch = SwarmScratch::default();
            let mut out = vec![0u64; lanes];
            b.iter(|| {
                evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

/// The PSO velocity sweep on a problem's shape: eight rounds of
/// `step_reference` (baseline) against eight of `step` (candidate) over
/// one 16-particle swarm, every timed run restarting from the same
/// filled-and-decoded state (restoring it is inside both timings) with
/// each particle's personal best its own decode and the global best
/// particle 0's — the `sweep/<name>/step` paired ratio. Both kernels must
/// leave identical positions and RNG streams, or the ratio would compare
/// different work.
fn bench_sweep(c: &mut Criterion, name: &str, problem: &PartitionProblem<'_>) {
    const PARTICLES: usize = 16;
    const ROUNDS: usize = 8;
    let n = problem.graph().num_neurons() as usize;
    let (decoder, weights) = sweep::default_decoder(n, problem.num_crossbars(), problem.capacity());
    let mut scratch = DecodeScratch::default();
    let mut start = Swarm::new(PARTICLES, n, problem.num_crossbars(), SEED);
    start.fill(&decoder);
    start.decode(&decoder, sweep::PRODUCTION, &mut scratch);
    let mut swarm = start.clone();
    let mut run = |kernel| {
        swarm.copy_from(&start);
        for _ in 0..ROUNDS {
            swarm.step(&decoder, kernel, weights, &start.positions, &mut scratch);
        }
        (swarm.positions.clone(), swarm.rngs.clone())
    };
    assert!(
        run(sweep::REFERENCE) == run(sweep::PRODUCTION),
        "REGRESSION: the masked-row sweep diverges from its scalar reference on {name}"
    );
    let mut group = c.benchmark_group(format!("sweep/{name}"));
    group.sample_size(10);
    // the sides' samples alternate: on `HD` the two kernels are close
    // (1.0–1.3), and one throttled spell on one side alone used to decide
    // the smoke's one-iteration samples
    let kernels = [sweep::REFERENCE, sweep::PRODUCTION];
    group.bench_pair(
        [
            BenchmarkId::new("scalar", "step"),
            BenchmarkId::new("batched", "step"),
        ],
        |side| run(kernels[side]),
    );
    group.finish();
}

/// The 256-crossbar large-architecture scenario: envelope gate + timings.
///
/// The scenario's trajectory in `BENCH_eval.json` is the regression
/// record for the multi-word batched evaluator and the masked-row
/// decode/repair kernel (`sweep/*`); before timing anything the bench
/// *asserts* that the tiled path still covers 256 crossbars for both
/// objectives.
fn bench_large_arch(c: &mut Criterion) {
    let scenario = LargeArch::grid16();
    let graph = scenario.spike_graph(SEED).expect("scenario builds");
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible");
    let name = scenario.name();

    // ---- envelope gate (fail loudly, do not time a regression) ----
    // the hop-aware objective carries the mesh's hop table; like the
    // other objectives it must stay on the batched byte-tile path at the
    // full 256-crossbar envelope
    let lut = DistanceLut::new(&Mesh2D::for_crossbars(scenario.num_crossbars()));
    let problem_hops = problem.with_hops(&lut).expect("lut covers the arch");
    for (kind, p) in [
        (FitnessKind::CutSpikes, &problem),
        (FitnessKind::CutPackets, &problem),
        (FitnessKind::CutHops, &problem_hops),
    ] {
        let evaluator = SwarmEval::new(*p, kind);
        assert_eq!(
            evaluator.kernel(),
            SwarmKernel::ByteTile,
            "REGRESSION: SwarmEval must run the byte-tile kernel for {kind:?} \
             at {} crossbars, not {}",
            scenario.num_crossbars(),
            evaluator.kernel()
        );
    }
    assert_eq!(
        SwarmEval::new(problem, FitnessKind::CutPackets).mask_words(),
        4,
        "256 crossbars must use the 4-word mask stride"
    );

    bench_swarm_eval(c, &name, &problem, 64);

    // hop-weighted scoring: scalar per-candidate scan vs the weighted
    // byte-tile reduction, same group/key shape as the other objectives
    {
        let lanes = 64;
        let n = problem_hops.graph().num_neurons() as usize;
        let positions = random_swarm(n, problem_hops.num_crossbars(), lanes, 7);
        let mut group = c.benchmark_group(format!("swarm_eval/{name}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("scalar", "CutHops"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for lane in 0..lanes {
                    acc ^= problem_hops.cut_hops(&positions[lane * n..(lane + 1) * n]);
                }
                black_box(acc)
            });
        });
        group.bench_function(BenchmarkId::new("batched", "CutHops"), |b| {
            let evaluator = SwarmEval::new(problem_hops, FitnessKind::CutHops);
            let mut scratch = SwarmScratch::default();
            let mut out = vec![0u64; lanes];
            b.iter(|| {
                evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
                black_box(out[0])
            });
        });
        group.finish();
    }

    bench_sweep(c, &name, &problem);
    bench_hop_polish(c, &name, &problem_hops);

    // ---- placement swap pricing on the 256-crossbar scenario ----
    // a packed partition with scrambled cluster ids: the contents of each
    // cluster are grid-local, but identity placement scatters them across
    // the mesh — exactly the situation the placement stage must repair
    let mapping = scenario.scrambled_packed_mapping(0x91A);
    let traffic = TrafficMatrix::from_mapping(&graph, &mapping, TrafficMode::PerCrossbar);
    bench_placement_sweep(c, &name, &traffic, &lut);
    bench_placement_greedy(c, &name, &traffic, &lut);
}

/// One greedy polish pass under `CutHops` — `refine`'s inner loop, every
/// neuron moved to its best open crossbar — from a fixed packing with
/// slack on every crossbar, priced target by target through
/// `Candidate::move_delta` (baseline: what `best_move` did before it
/// shared one per-neuron half across a neuron's targets) and by
/// `Candidate::best_move` (candidate): the `refine/<name>/CutHops` paired
/// ratio. Both must reach the identical assignment, or the ratio would
/// compare different work.
fn bench_hop_polish(c: &mut Criterion, name: &str, problem: &PartitionProblem<'_>) {
    let engine = EvalEngine::new(*problem, FitnessKind::CutHops);
    let n = problem.graph().num_neurons() as usize;
    let nc = problem.num_crossbars();
    let packed: Vec<u32> = (0..n).map(|i| (i * nc / n) as u32).collect();
    assert!(
        packed
            .chunk_by(|a, b| a == b)
            .all(|run| run.len() < problem.capacity() as usize),
        "every crossbar keeps slack"
    );
    let nc = nc as u32;
    let pass = |per_neuron: bool| {
        let mut assignment = packed.clone();
        let mut candidate = Candidate::new(&engine, &mut assignment);
        for i in 0..n {
            let best = if per_neuron {
                candidate.best_move(i, 0..nc)
            } else {
                (0..nc)
                    .filter_map(|to| candidate.move_delta(i, to).map(|d| (to, d)))
                    .filter(|&(_, d)| d < 0)
                    .min_by_key(|&(_, d)| d)
            };
            if let Some((to, delta)) = best {
                candidate.apply(i, to, delta);
            }
        }
        assignment
    };
    let polished = pass(false);
    assert_ne!(polished, packed, "the packing has moves to take");
    assert_eq!(
        polished,
        pass(true),
        "REGRESSION: best_move and the per-target reference must polish \
         to the same assignment"
    );
    let mut group = c.benchmark_group(format!("refine/{name}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("CutHops", "per_target"), |b| {
        b.iter(|| pass(false));
    });
    group.bench_function(BenchmarkId::new("CutHops", "per_neuron"), |b| {
        b.iter(|| pass(true));
    });
    group.finish();
}

/// One full first-improvement sweep over all cluster pairs from the
/// identity wiring — the optimizer's inner loop — priced by the dense
/// O(C) reference `swap_delta` (baseline) and by the O(deg) adjacency
/// pricer the optimizer runs (candidate): the `placement/<name>/sweep`
/// paired ratio. Both must accept the identical swap sequence, or the
/// ratio would compare different work.
fn bench_placement_sweep(
    c: &mut Criterion,
    name: &str,
    traffic: &TrafficMatrix,
    lut: &DistanceLut,
) {
    let clusters = traffic.num_crossbars();
    let sweep = |price: &dyn Fn(&[u32], usize, usize) -> i64| {
        let mut perm: Vec<u32> = (0..clusters as u32).collect();
        let mut accepted = Vec::new();
        for a in 0..clusters {
            for b in a + 1..clusters {
                if price(&perm, a, b) < 0 {
                    perm.swap(a, b);
                    accepted.push((a, b));
                }
            }
        }
        accepted
    };
    let adjacency = TrafficAdjacency::new(traffic);
    let dense = |perm: &[u32], a, b| swap_delta(traffic, lut, perm, a, b);
    let sparse = |perm: &[u32], a, b| adjacency.swap_delta(lut, perm, a, b);
    let accepted = sweep(&dense);
    assert!(
        !accepted.is_empty(),
        "a scrambled mapping has swaps to take"
    );
    assert_eq!(
        accepted,
        sweep(&sparse),
        "REGRESSION: the adjacency pricer and the dense reference must \
         accept the same swaps"
    );
    let mut group = c.benchmark_group(format!("placement/{name}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("dense", "sweep"), |b| {
        b.iter(|| sweep(&dense));
    });
    group.bench_function(BenchmarkId::new("adjacency", "sweep"), |b| {
        b.iter(|| sweep(&sparse));
    });
    group.finish();
}

/// The optimizer's greedy polish after one annealing run — the work of
/// an annealed restart's second half — priced pair by pair through the
/// O(deg) adjacency pricer (baseline) and from the O(1)
/// `SlotCostTable`, built and kept current across the swaps it takes
/// (candidate): the `placement/<name>/greedy` paired ratio. The start is
/// a seeded scatter annealed as the optimizer anneals, under its
/// `SA_T0`/`SA_ALPHA` schedule, with the adjacency pricer. Both polishes must
/// take the identical swap sequence, or the ratio would compare
/// different work.
fn bench_placement_greedy(
    c: &mut Criterion,
    name: &str,
    traffic: &TrafficMatrix,
    lut: &DistanceLut,
) {
    let clusters = traffic.num_crossbars();
    let cfg = PlaceConfig::default();
    let adjacency = TrafficAdjacency::new(traffic);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut annealed: Vec<u32> = (0..clusters as u32).collect();
    for a in (1..clusters).rev() {
        annealed.swap(a, rng.gen_range(0..a + 1));
    }
    let mut temp = SA_T0;
    for _ in 0..cfg.sa_moves {
        let (a, b) = (rng.gen_range(0..clusters), rng.gen_range(0..clusters));
        let d = adjacency.swap_delta(lut, &annealed, a, b);
        if d <= 0 || rng.gen_range(0.0..1.0) < (-(d as f64) / temp).exp() {
            annealed.swap(a, b);
        }
        temp *= SA_ALPHA;
    }
    // `try_swap(a, b)` takes the swap if it prices below zero
    let polish = |try_swap: &mut dyn FnMut(usize, usize) -> bool| {
        let mut taken = Vec::new();
        for _ in 0..cfg.greedy_passes {
            let before = taken.len();
            for a in 0..clusters {
                for b in a + 1..clusters {
                    if try_swap(a, b) {
                        taken.push((a, b));
                    }
                }
            }
            if taken.len() == before {
                break;
            }
        }
        taken
    };
    let by_adjacency = || {
        let mut perm = annealed.clone();
        polish(&mut |a, b| {
            let take = adjacency.swap_delta(lut, &perm, a, b) < 0;
            if take {
                perm.swap(a, b);
            }
            take
        })
    };
    let by_table = || {
        let mut table = SlotCostTable::new(traffic, &adjacency, lut, annealed.clone());
        polish(&mut |a, b| {
            let take = table.swap_delta(a, b) < 0;
            if take {
                table.swap(a, b);
            }
            take
        })
    };
    let taken = by_adjacency();
    assert!(taken.len() > 100, "an annealed scatter has swaps to take");
    assert_eq!(
        taken,
        by_table(),
        "REGRESSION: the slot-cost table and the adjacency pricer must \
         take the same swaps"
    );
    let mut group = c.benchmark_group(format!("placement/{name}"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("adjacency", "greedy"), |b| {
        b.iter(by_adjacency);
    });
    group.bench_function(BenchmarkId::new("table", "greedy"), |b| {
        b.iter(by_table);
    });
    group.finish();
}

/// Staged partition-then-place vs the joint partition ⇄ placement loop
/// (`core::coopt`) on the 64-crossbar scenario, same hop-priced PSO
/// budget and placement optimizer on both sides. The paired
/// `coopt/synth_8x8grid/CutHops` ratio in `BENCH_eval.json` records the
/// joint loop's same-run time-overhead factor (speedup < 1 is expected:
/// the loop re-runs the placement optimizer every `replace_every`
/// iterations). The quality side is *asserted*, not timed — the joint
/// result must never price worse than its own staged fallback.
fn bench_coopt(c: &mut Criterion) {
    let scenario = LargeArch {
        side: 8,
        neurons_per_crossbar: 8,
        synapses_per_neuron: 24,
        fill_percent: 85,
    };
    let graph = scenario.spike_graph(SEED).expect("scenario builds");
    let lut = DistanceLut::new(&Mesh2D::for_crossbars(scenario.num_crossbars()));
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible")
        .with_hops(&lut)
        .expect("lut covers the arch");
    let cfg = CooptConfig {
        pso: PsoConfig {
            swarm_size: 8,
            iterations: 8,
            fitness: FitnessKind::CutHops,
            seed_baselines: false,
            polish_passes: 1,
            threads: 1,
            seed: SEED,
        },
        place: PlaceConfig {
            threads: 1,
            restarts: 2,
            ..PlaceConfig::default()
        },
        replace_every: 2,
        multilevel: None,
    };
    let out =
        co_optimize(&problem, &lut, TrafficMode::PerCrossbar, &cfg).expect("scenario co-optimizes");
    assert!(
        out.joint_cost <= out.staged_cost || !out.used_joint,
        "REGRESSION: co_optimize returned a joint result pricing worse than \
         its staged fallback ({} > {})",
        out.joint_cost,
        out.staged_cost
    );
    println!(
        "coopt/{}: hop-weighted packets staged {} / joint {} (used joint: {})",
        scenario.name(),
        out.staged_cost,
        out.joint_cost,
        out.used_joint
    );
    let mut group = c.benchmark_group(format!("coopt/{}", scenario.name()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("staged", "CutHops"), |b| {
        let pso = PsoPartitioner::new(cfg.pso);
        b.iter(|| {
            let (m, _) = pso.partition_traced(&problem).expect("feasible");
            let traffic = TrafficMatrix::from_mapping(&graph, &m, TrafficMode::PerCrossbar);
            optimize_placement(&traffic, &lut, &cfg.place).expect("valid config")
        });
    });
    group.bench_function(BenchmarkId::new("joint", "CutHops"), |b| {
        b.iter(|| {
            co_optimize(&problem, &lut, TrafficMode::PerCrossbar, &cfg)
                .expect("scenario co-optimizes")
        });
    });
    group.finish();
}

/// Flat PSO vs the multilevel V-cycle on the 1024-crossbar
/// `synth_32x32grid` scenario — the `multilevel/*` paired ratio in
/// `BENCH_eval.json`, floor-gated in [`ledger::EVAL`].
///
/// At 1024 crossbars the batched evaluator's byte-tile envelope is
/// exceeded, so flat PSO pays the scalar per-candidate path *and* a
/// dense `n × c` velocity field per particle (~28 MB each) — the regime
/// the multilevel coarsen–partition–refine path exists for. Both sides
/// get the same seed and objective; the quality side is *asserted*, not
/// timed: the V-cycle's final cut must never price worse than the flat
/// swarm's, so the timed ratio is a genuine equal-or-better-quality
/// speedup rather than a quality trade.
fn bench_multilevel(c: &mut Criterion) {
    let scenario = LargeArch::grid32();
    let graph = scenario.spike_graph(SEED).expect("scenario builds");
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible");
    // both sides search with the *identical* swarm configuration — the
    // V-cycle simply runs it on the ~8x-smaller coarsest graph and
    // spends the savings on O(deg) boundary refinement; even this small
    // budget (8 particles x 8 iterations) costs flat PSO seconds per run
    // at 1024 crossbars, so a paper-scale flat budget would take hours
    let swarm_cfg = PsoConfig {
        swarm_size: 8,
        iterations: 8,
        fitness: FitnessKind::CutSpikes,
        seed_baselines: false,
        polish_passes: 0,
        threads: 1,
        seed: SEED,
    };
    let flat_cfg = swarm_cfg;
    let ml_cfg = MultilevelConfig {
        pso: swarm_cfg,
        threads: 1,
        ..MultilevelConfig::default()
    };

    // ---- quality gate (fail loudly, do not time a quality trade) ----
    let (flat_map, _) = PsoPartitioner::new(flat_cfg)
        .partition_traced(&problem)
        .expect("feasible");
    let flat_cut = problem.cut_spikes(flat_map.assignment());
    let out = vcycle(&problem, &ml_cfg).expect("vcycle runs");
    assert!(
        out.cost <= flat_cut,
        "REGRESSION: the V-cycle must match or beat flat PSO's cut at this \
         budget ({} !<= {})",
        out.cost,
        flat_cut
    );
    println!(
        "multilevel/{}: cut-spikes flat {} / vcycle {} ({} levels, projection won: {})",
        scenario.name(),
        flat_cut,
        out.cost,
        out.levels.len(),
        out.used_projection
    );

    let mut group = c.benchmark_group(format!("multilevel/{}", scenario.name()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("flat", "CutSpikes"), |b| {
        let pso = PsoPartitioner::new(flat_cfg);
        b.iter(|| pso.partition_traced(&problem).expect("feasible"));
    });
    group.bench_function(BenchmarkId::new("vcycle", "CutSpikes"), |b| {
        b.iter(|| vcycle(&problem, &ml_cfg).expect("vcycle runs"));
    });
    group.finish();
}

/// The 1024-crossbar multi-chip scenario (`synth_4chip16x16`): u16
/// word-tile envelope gate + batched-vs-scalar timings behind the
/// `hier/*` paired ratios in `BENCH_eval.json` (`CutSpikes` floor-gated
/// in [`ledger::EVAL`]).
///
/// Before timing anything the bench *asserts which kernel actually
/// runs* — [`SwarmEval::kernel`] must report the u16 word-tile for
/// `CutSpikes` and `CutPackets` at 1024 crossbars, and the scalar arm for
/// `CutHops` under the fabric's weighted distances (its word-tile bit
/// walk never beat the scalar scan, so there is no pair left to time) —
/// and spot-checks the batched costs bit-identical against the scalar
/// reference on the real scenario, so a silent fallback or a kernel
/// divergence fails CI loudly instead of being timed as if nothing
/// happened.
fn bench_hier(c: &mut Criterion) {
    let scenario = MultiChip::four_chip16();
    let graph = scenario.spike_graph(SEED).expect("scenario builds");
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible");
    let name = scenario.name();
    let tiled = [FitnessKind::CutSpikes, FitnessKind::CutPackets];

    // ---- kernel gate (fail loudly, do not time a fallback) ----
    // chip-boundary hops priced latency × width
    let lut = HierTopology::for_crossbars(
        scenario.num_crossbars(),
        scenario.chip_cols as usize,
        scenario.chip_rows as usize,
        scenario.link_latency,
        scenario.link_width,
    )
    .expect("scenario parameters are valid")
    .distance_lut();
    let problem_hops = problem.with_hops(&lut).expect("lut covers the arch");
    for (kind, p, expected) in [
        (tiled[0], &problem, SwarmKernel::WordTile),
        (tiled[1], &problem, SwarmKernel::WordTile),
        (FitnessKind::CutHops, &problem_hops, SwarmKernel::Scalar),
    ] {
        let kernel = SwarmEval::new(*p, kind).kernel();
        assert_eq!(
            kernel,
            expected,
            "REGRESSION: SwarmEval must run the {expected} kernel for {kind:?} \
             at {} crossbars, not {kernel}",
            scenario.num_crossbars()
        );
    }

    // ---- bit-identity spot check on the actual scenario ----
    let lanes = 64;
    let n = graph.num_neurons() as usize;
    let positions = random_swarm(n, problem.num_crossbars(), lanes, 7);
    for kind in tiled {
        let evaluator = SwarmEval::new(problem, kind);
        let mut scratch = SwarmScratch::default();
        let mut out = vec![0u64; lanes];
        evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
        for lane in 0..lanes {
            assert_eq!(
                out[lane],
                problem.cost(kind, &positions[lane * n..(lane + 1) * n]),
                "word-tile diverges from the scalar reference for {kind:?} lane {lane}"
            );
        }
    }

    // scalar vs batched timings, paired into the
    // `hier/synth_4chip16x16/<kind>` ratios
    let mut group = c.benchmark_group(format!("hier/{name}"));
    group.sample_size(10);
    for kind in tiled {
        let tag = format!("{kind:?}");
        group.bench_with_input(BenchmarkId::new("scalar", &tag), &kind, |b, &kind| {
            b.iter(|| {
                let mut acc = 0u64;
                for lane in 0..lanes {
                    acc ^= problem.cost(kind, &positions[lane * n..(lane + 1) * n]);
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", &tag), &kind, |b, &kind| {
            let evaluator = SwarmEval::new(problem, kind);
            let mut scratch = SwarmScratch::default();
            let mut out = vec![0u64; lanes];
            b.iter(|| {
                evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    // the digit app on its CxQuad-class tree: hd_tree_paper's graph
    let digit = DigitRecognition {
        presentations: 4,
        present_ms: 100,
        rest_ms: 25,
        ..DigitRecognition::default()
    };
    let graph = digit.spike_graph(SEED).expect("digit app simulates");
    let arch = arch_for(graph.num_neurons());
    let problem = PartitionProblem::new(&graph, arch.num_crossbars(), arch.neurons_per_crossbar())
        .expect("feasible");
    bench_full_vs_incremental(&mut c, &digit.name(), &problem);
    bench_swarm_eval(&mut c, &digit.name(), &problem, 100);
    bench_sweep(&mut c, &digit.name(), &problem);

    // 16 × 16 = 256 crossbars: the multi-word envelope, gated + timed
    bench_large_arch(&mut c);

    // joint partition ⇄ placement loop vs its staged fallback (64 crossbars)
    bench_coopt(&mut c);

    // 32 × 32 = 1024 crossbars: flat PSO vs the multilevel V-cycle
    bench_multilevel(&mut c);

    // 2 × 2 chips × (16 × 16) = 1024 crossbars: the u16 word-tile
    // envelope on the multi-chip scenario, gated + timed
    bench_hier(&mut c);

    if let Err(failed) = ledger::EVAL.publish(c.summaries()) {
        eprintln!("BENCH_eval.json gates failed:\n{failed}");
        std::process::exit(1);
    }
}
