//! Evaluation-engine benchmarks: full recompute vs the incremental
//! per-candidate path vs the batched swarm path, at paper scale, plus an
//! end-to-end PSO timing — and the 256-crossbar `synth_16x16grid`
//! scenario, which **gates the batched envelope**: the bench aborts if
//! `SwarmEval` ever falls back to the per-candidate scalar path at 256
//! crossbars, so a regression fails CI loudly instead of silently
//! slowing down. Writes a `BENCH_eval.json` summary so the perf
//! trajectory is tracked across PRs (`scripts/verify.sh` diffs the key
//! set).
//!
//! Knobs:
//! * `NEUROMAP_BENCH_FAST=1` — 1-sample smoke run (CI gate);
//! * `NEUROMAP_BENCH_PAPER=1` — also time `PsoConfig::paper()`
//!   (swarm 1000 × 100 iterations) end to end on the synthetic workload.

use criterion::{black_box, BenchmarkId, Criterion};
use neuromap_apps::digit_recognition::DigitRecognition;
use neuromap_apps::synthetic::{LargeArch, MultiChip, Synthetic};
use neuromap_apps::App;
use neuromap_bench::{arch_for, SEED};
use neuromap_core::coopt::{co_optimize, CooptConfig};
use neuromap_core::eval::{EvalEngine, SwarmEval, SwarmKernel, SwarmScratch};
use neuromap_core::multilevel::{vcycle, MultilevelConfig};
use neuromap_core::partition::{FitnessKind, PartitionProblem};
use neuromap_core::pipeline::{MappingPipeline, PipelineConfig, TrafficMode};
use neuromap_core::place::{
    optimize_placement, swap_delta, PlaceConfig, TrafficAdjacency, TrafficMatrix,
};
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_core::SpikeGraph;
use neuromap_hw::arch::{Architecture, InterconnectKind};
use neuromap_hw::mapping::Mapping;
use neuromap_noc::config::NocConfig;
use neuromap_noc::topology::{DistanceLut, HierTopology, Mesh2D};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn workloads() -> Vec<(String, SpikeGraph)> {
    let synth = Synthetic::new(2, 400);
    let digit = DigitRecognition {
        presentations: 4,
        present_ms: 100,
        rest_ms: 25,
        ..DigitRecognition::default()
    };
    vec![
        (
            synth.name(),
            synth.spike_graph(SEED).expect("synthetic simulates"),
        ),
        (
            digit.name(),
            digit.spike_graph(SEED).expect("digit app simulates"),
        ),
    ]
}

/// Random positions for a swarm (capacity is irrelevant to evaluation
/// cost).
fn random_swarm(n: usize, c: usize, lanes: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..lanes * n).map(|_| rng.gen_range(0..c as u32)).collect()
}

fn bench_full_vs_incremental(c: &mut Criterion, name: &str, graph: &SpikeGraph) {
    let arch = arch_for(graph.num_neurons());
    let problem = PartitionProblem::new(graph, arch.num_crossbars(), arch.neurons_per_crossbar())
        .expect("feasible");
    let n = graph.num_neurons() as usize;
    let nc = arch.num_crossbars();
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
        // O(deg) incremental move through the engine
        group.bench_with_input(BenchmarkId::new("incremental", &tag), &kind, |b, &kind| {
            let engine = EvalEngine::new(problem, kind);
            let mut a: Vec<u32> = (0..n).map(|i| (i % nc) as u32).collect();
            let mut state = engine.init(&a);
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                let to = (a[i] + 1) % nc as u32;
                black_box(engine.apply_move(&mut state, &mut a, i, to))
            });
        });
    }
    group.finish();
}

fn bench_swarm_eval(c: &mut Criterion, name: &str, graph: &SpikeGraph) {
    let arch = arch_for(graph.num_neurons());
    let problem = PartitionProblem::new(graph, arch.num_crossbars(), arch.neurons_per_crossbar())
        .expect("feasible");
    bench_swarm_eval_on(c, name, &problem, 100);
}

/// Scalar-vs-batched swarm scoring on an explicit problem instance.
fn bench_swarm_eval_on(
    c: &mut Criterion,
    name: &str,
    problem: &PartitionProblem<'_>,
    lanes: usize,
) {
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

/// The 256-crossbar large-architecture scenario: envelope gate + timings.
///
/// The scenario's trajectory in `BENCH_eval.json` is the regression
/// record for the multi-word batched evaluator and the fused
/// decode/repair kernel; before timing anything the bench *asserts* that
/// the tiled path still covers 256 crossbars for both objectives.
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

    bench_swarm_eval_on(c, &name, &problem, 64);

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

    // ---- placement stage on the 256-crossbar scenario ----
    // a packed partition with scrambled cluster ids: the contents of each
    // cluster are grid-local, but identity placement scatters them across
    // the mesh — exactly the situation the placement stage must repair
    let mapping = scenario.scrambled_packed_mapping(0x91A);
    let traffic = TrafficMatrix::from_mapping(&graph, &mapping, TrafficMode::PerCrossbar);
    bench_placement(c, &name, &traffic, &lut);
    bench_placement_sweep(c, &name, &traffic, &lut);

    // ---- hop metrics under Steiner trees: one tree per net ----
    // the same scattered mapping on a 2-VC torus with tree routing — the
    // shape of mapbench's grid16_torus_joint_trees report stage, where
    // every spike of a neuron shares one multicast tree
    let arch = Architecture::custom(
        scenario.num_crossbars(),
        scenario.capacity(),
        InterconnectKind::Torus,
    )
    .expect("valid arch");
    let noc = NocConfig {
        multicast: true,
        multicast_trees: true,
        vc_count: 2,
        ..NocConfig::default()
    };
    let pipeline = MappingPipeline::new(
        PipelineConfig::for_arch(arch)
            .with_traffic(TrafficMode::PerCrossbar)
            .with_noc(noc),
    );
    let flows = pipeline.packetize(&graph, &mapping);
    let mut group = c.benchmark_group("pipeline/hop_metrics");
    group.sample_size(10);
    group.bench_function("synth_16x16torus_trees", |b| {
        b.iter(|| black_box(pipeline.hop_metrics(black_box(&flows))));
    });
    group.finish();

    // full PSO steps (fused decode + repair + batched evaluation)
    let mut group = c.benchmark_group(format!("pso_step/{name}"));
    group.sample_size(10);
    for kind in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
        let tag = format!("swarm40_iters4/{kind:?}");
        group.bench_with_input(BenchmarkId::from(tag), &kind, |b, &kind| {
            let pso = PsoPartitioner::new(PsoConfig {
                swarm_size: 40,
                iterations: 4,
                fitness: kind,
                seed_baselines: false,
                polish_passes: 0,
                threads: 1,
                ..PsoConfig::default()
            });
            b.iter(|| pso.partition_traced(&problem).expect("feasible"));
        });
    }
    group.finish();
}

/// Times the placement optimizer on `traffic` and gates its quality: the
/// optimized permutation must price strictly below identity on the
/// scrambled-cluster traffic.
fn bench_placement(c: &mut Criterion, name: &str, traffic: &TrafficMatrix, lut: &DistanceLut) {
    // two restarts keep the timed call representative (identity-greedy +
    // one annealed chain) without making the smoke run minutes long
    let cfg = PlaceConfig {
        threads: 1,
        restarts: 2,
        ..PlaceConfig::default()
    };
    let outcome = optimize_placement(traffic, lut, &cfg).expect("valid config");
    assert!(
        outcome.optimized_cost < outcome.identity_cost,
        "REGRESSION: placement must beat identity on scrambled clusters \
         ({} !< {})",
        outcome.optimized_cost,
        outcome.identity_cost
    );
    println!(
        "placement/{name}: hop-weighted packets {} -> {} ({:.1}% lower)",
        outcome.identity_cost,
        outcome.optimized_cost,
        100.0 * outcome.relative_gain()
    );
    let mut group = c.benchmark_group(format!("placement/{name}"));
    group.sample_size(10);
    group.bench_function("optimize", |b| {
        b.iter(|| optimize_placement(traffic, lut, &cfg).expect("valid config"));
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
            ..PsoConfig::default()
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
/// `BENCH_eval.json`, floor-gated by `scripts/verify.sh`.
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
        ..PsoConfig::default()
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
/// `hier/*` paired ratios in `BENCH_eval.json` (floor-gated ≥ 2× by
/// `scripts/verify.sh`).
///
/// Before timing anything the bench *asserts which kernel actually
/// runs* — [`SwarmEval::kernel`] must report the u16 word-tile for all
/// three objectives at 1024 crossbars — and spot-checks the batched
/// costs bit-identical against the scalar reference on the real
/// scenario, so a silent fallback or a kernel divergence fails CI
/// loudly instead of being timed as if nothing happened.
fn bench_hier(c: &mut Criterion) {
    let scenario = MultiChip::four_chip16();
    let graph = scenario.spike_graph(SEED).expect("scenario builds");
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible");
    let name = scenario.name();

    // hop-aware objective under the fabric's *weighted* distances:
    // chip-boundary hops priced latency × width
    let topo = HierTopology::for_crossbars(
        scenario.num_crossbars(),
        scenario.chip_cols as usize,
        scenario.chip_rows as usize,
        scenario.link_latency,
        scenario.link_width,
    )
    .expect("scenario parameters are valid");
    let lut = topo.distance_lut();
    let problem_hops = problem.with_hops(&lut).expect("lut covers the arch");
    let objectives = [
        (FitnessKind::CutSpikes, &problem),
        (FitnessKind::CutPackets, &problem),
        (FitnessKind::CutHops, &problem_hops),
    ];

    // ---- kernel gate (fail loudly, do not time a fallback) ----
    for (kind, p) in objectives {
        let evaluator = SwarmEval::new(*p, kind);
        assert_eq!(
            evaluator.kernel(),
            SwarmKernel::WordTile,
            "REGRESSION: SwarmEval must run the u16 word-tile kernel for \
             {kind:?} at {} crossbars, not {}",
            scenario.num_crossbars(),
            evaluator.kernel()
        );
    }

    // ---- bit-identity spot check on the actual scenario ----
    let lanes = 64;
    let n = graph.num_neurons() as usize;
    let positions = random_swarm(n, problem.num_crossbars(), lanes, 7);
    for (kind, p) in objectives {
        let evaluator = SwarmEval::new(*p, kind);
        let mut scratch = SwarmScratch::default();
        let mut out = vec![0u64; lanes];
        evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
        for lane in 0..lanes {
            assert_eq!(
                out[lane],
                p.cost(kind, &positions[lane * n..(lane + 1) * n]),
                "word-tile diverges from the scalar reference for {kind:?} lane {lane}"
            );
        }
    }

    // scalar vs batched timings; `paired_ratios` pairs the ids into the
    // `hier/synth_4chip16x16/<kind>` ratios
    let mut group = c.benchmark_group(format!("hier/{name}"));
    group.sample_size(10);
    for (kind, p) in objectives {
        let tag = format!("{kind:?}");
        group.bench_with_input(BenchmarkId::new("scalar", &tag), &kind, |b, &kind| {
            b.iter(|| {
                let mut acc = 0u64;
                for lane in 0..lanes {
                    acc ^= p.cost(kind, &positions[lane * n..(lane + 1) * n]);
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", &tag), &kind, |b, &kind| {
            let evaluator = SwarmEval::new(*p, kind);
            let mut scratch = SwarmScratch::default();
            let mut out = vec![0u64; lanes];
            b.iter(|| {
                evaluator.eval_swarm(&positions, lanes, &mut scratch, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();

    // ---- placement stage at 1024 crossbars under the weighted table ----
    // chip-major home tiles behind scrambled cluster ids, the multi-chip
    // twin of `LargeArch::scrambled_packed_mapping`
    let clusters = scenario.num_crossbars();
    let mut ids: Vec<u32> = (0..clusters as u32).collect();
    let mut rng = StdRng::seed_from_u64(0x91A);
    for a in (1..clusters).rev() {
        ids.swap(a, rng.gen_range(0..a + 1));
    }
    let assign = (0..graph.num_neurons())
        .map(|i| ids[((i / scenario.capacity()) as usize).min(clusters - 1)])
        .collect();
    let mapping = Mapping::from_assignment(assign, clusters).expect("permuted ids in range");
    let traffic = TrafficMatrix::from_mapping(&graph, &mapping, TrafficMode::PerCrossbar);
    bench_placement(c, &name, &traffic, &lut);
}

fn bench_pso_step(c: &mut Criterion, name: &str, graph: &SpikeGraph) {
    let arch = arch_for(graph.num_neurons());
    let problem = PartitionProblem::new(graph, arch.num_crossbars(), arch.neurons_per_crossbar())
        .expect("feasible");
    let mut group = c.benchmark_group(format!("pso_step/{name}"));
    group.sample_size(10);
    // swarm 100 × 10 iterations ≈ 1/100th of a paper-scale run
    group.bench_function("swarm100_iters10", |b| {
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 100,
            iterations: 10,
            seed_baselines: false,
            polish_passes: 0,
            ..PsoConfig::default()
        });
        b.iter(|| pso.partition_traced(&problem).expect("feasible"));
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let apps = workloads();
    for (name, graph) in &apps {
        bench_full_vs_incremental(&mut c, name, graph);
        bench_swarm_eval(&mut c, name, graph);
        bench_pso_step(&mut c, name, graph);
    }

    // 16 × 16 = 256 crossbars: the multi-word envelope, gated + timed
    bench_large_arch(&mut c);

    // joint partition ⇄ placement loop vs its staged fallback (64 crossbars)
    bench_coopt(&mut c);

    // 32 × 32 = 1024 crossbars: flat PSO vs the multilevel V-cycle
    bench_multilevel(&mut c);

    // 2 × 2 chips × (16 × 16) = 1024 crossbars: the u16 word-tile
    // envelope on the multi-chip scenario, gated + timed
    bench_hier(&mut c);

    // end-to-end paper-scale run (slow; opt-in)
    let mut paper_seconds: Option<f64> = None;
    if std::env::var("NEUROMAP_BENCH_PAPER")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        let (name, graph) = &apps[0];
        let arch = arch_for(graph.num_neurons());
        let problem =
            PartitionProblem::new(graph, arch.num_crossbars(), arch.neurons_per_crossbar())
                .expect("feasible");
        let start = Instant::now();
        let pso = PsoPartitioner::new(PsoConfig::paper());
        let (m, _) = pso.partition_traced(&problem).expect("feasible");
        let secs = start.elapsed().as_secs_f64();
        println!(
            "paper-scale PSO ({name}, swarm 1000 x 100 iters): {secs:.2} s, cut spikes {}",
            problem.cut_spikes(m.assignment())
        );
        paper_seconds = Some(secs);
    }

    // machine-readable summary for cross-PR tracking
    let mut entries: Vec<String> = c
        .summaries()
        .iter()
        .map(|s| {
            format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}}}",
                s.id, s.median_ns, s.mean_ns, s.samples
            )
        })
        .collect();
    if let Some(secs) = paper_seconds {
        entries.push(format!(
            "    {{\"id\": \"pso_paper_end_to_end\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": 1}}",
            secs * 1e9,
            secs * 1e9
        ));
    }
    // same-run paired ratios: baseline and candidate are measured back to
    // back in one process, so the ratio is immune to the 1-core box's
    // thermal throttling that makes cross-PR *absolute* ns unreliable
    // (ROADMAP caveat from PR 3) — cross-PR reads should compare these
    let ratios = paired_ratios(&c);
    let json = format!(
        "{{\n  \"ratios\": [\n{}\n  ],\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        ratios.join(",\n"),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    std::fs::write(path, &json).expect("write BENCH_eval.json");
    println!("wrote BENCH_eval.json ({} entries)", c.summaries().len());
}

/// Builds `{id, baseline, candidate, speedup, higher_is_better}`
/// entries for every same-run baseline/candidate pair: `scalar` vs
/// `batched` swarm scoring, `full` vs `incremental` move pricing, `flat`
/// vs `vcycle` multilevel partitioning, `staged` vs `joint`
/// co-optimization, and `dense` vs `adjacency` placement swap pricing.
/// `higher_is_better` tells readers (and the verify gate) which
/// direction is good: the coopt pair deliberately records
/// the joint loop's *time overhead*, so its speedup sits below 1 by
/// design and a naive "bigger is better" read would misfire.
fn paired_ratios(c: &Criterion) -> Vec<String> {
    const PAIRS: [(&str, &str, bool); 5] = [
        ("/scalar/", "/batched/", true),
        ("/full/", "/incremental/", true),
        ("/flat/", "/vcycle/", true),
        ("/staged/", "/joint/", false),
        ("/dense/", "/adjacency/", true),
    ];
    let median = |id: &str| {
        c.summaries()
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.median_ns)
    };
    let mut out = Vec::new();
    for s in c.summaries() {
        for (base_marker, cand_marker, higher_is_better) in PAIRS {
            if !s.id.contains(base_marker) {
                continue;
            }
            let cand_id = s.id.replace(base_marker, cand_marker);
            let Some(cand) = median(&cand_id) else {
                continue;
            };
            if cand <= 0.0 {
                continue;
            }
            out.push(format!(
                "    {{\"id\": \"{}\", \"baseline\": \"{}\", \"candidate\": \"{}\", \"speedup\": {:.2}, \"higher_is_better\": {}}}",
                s.id.replace(base_marker, "/"),
                s.id,
                cand_id,
                s.median_ns / cand,
                higher_is_better
            ));
        }
    }
    out
}
