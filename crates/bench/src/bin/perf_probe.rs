//! Quick wall-clock probe of the PSO hot path at paper scale — used to
//! track the perf trajectory across PRs (complements the criterion
//! benches, which measure the evaluation kernels in isolation).
//!
//! Usage: `cargo run --release -p neuromap-bench --bin perf_probe [swarm] [iters]`
//!
//! `perf_probe multilevel` probes the multilevel V-cycle
//! ([`neuromap_core::multilevel`]) on the `synth_32x32grid` scenario:
//! per-level sizes, matching rates, refinement moves/accepts, and
//! per-level wall time.
//!
//! `perf_probe eval [LANES…]` times the swarm evaluator against the
//! scalar reference across the kernel map ([`SwarmEval::kernel`]) — the
//! table a decision about a tile kernel starts from.
//!
//! `perf_probe sweep` times the PSO velocity sweep
//! ([`neuromap_core::decode`]: `fill_velocity`, `decode`, `step`) against
//! its scalar reference and against the streaming floor of the buffer it
//! walks — the table a decision about that kernel starts from.
//!
//! `perf_probe place` times [`optimize_placement`] on the three inputs
//! whose default outcomes `tests/placement_properties.rs` freezes, at the
//! default config and at one restart (greedy polish from the identity
//! only), and prints each outcome triple beside its median.
//!
//! `perf_probe noc` instead probes the interconnect engines on the
//! dense-saturation workloads of [`neuromap_bench::noc_workloads`], on
//! repeated-net traffic at 64 and 1024 routers and on per-synapse traffic
//! on a 12-crossbar tree: it times the event engine
//! against the cycle oracle and prints the event scheduler's diagnostic
//! counters ([`neuromap_noc::stats::SchedCounters`]) — wake cycles,
//! per-port wakes and router visits, and the wake-queue peaks — so
//! dense-regime scheduling regressions show up as counter shifts, not
//! just wall-clock noise; and,
//! per scenario, the nets and forwarding-plan nodes of the run, spikes
//! per net and host ns per router traversal — "does this traffic repeat
//! its nets" is that one line — and the host time of the run's four
//! phases (setup, schedule, router loop, statistics).

use neuromap_apps::digit_recognition::DigitRecognition;
use neuromap_apps::synthetic::{LargeArch, MultiChip, Synthetic};
use neuromap_apps::App;
use neuromap_bench::noc_workloads::{
    dense_workloads, engine_workloads, repeated_net_traffic, tree12_per_synapse, NocWorkload,
};
use neuromap_bench::sweep::{self, Swarm};
use neuromap_bench::{arch_for, SEED};
use neuromap_core::decode::DecodeScratch;
use neuromap_core::eval::{SwarmEval, SwarmScratch};
use neuromap_core::graph::SpikeGraph;
use neuromap_core::multilevel::{vcycle, MultilevelConfig};
use neuromap_core::partition::{FitnessKind, PartitionProblem};
use neuromap_core::pipeline::TrafficMode;
use neuromap_core::place::{optimize_placement, PlaceConfig, TrafficMatrix};
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_hw::energy::EnergyModel;
use neuromap_noc::config::NocConfig;
use neuromap_noc::sim::{EngineKind, NocSim};
use neuromap_noc::topology::{DistanceLut, HierTopology, Mesh2D, Topology, Torus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// One-line swarm-evaluator kernel report: which kernel `SwarmEval`
/// runs for this problem under this objective. The scalar arm is a
/// measured choice for some (objective, size) pairs and the only option
/// past the tiles; either way the probe names it.
fn kernel_line(problem: &PartitionProblem<'_>, kind: FitnessKind) -> String {
    let kernel = SwarmEval::new(*problem, kind).kernel();
    format!("swarm-eval kernel: {kernel} ({kind:?})")
}

/// Wall time of one call, in milliseconds.
fn wall_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Middle sample (upper middle of an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Scalar-vs-batched swarm scoring across the kernel map: per grid side
/// (256, 576, 1024 crossbars, mesh distances), objective and lane count,
/// the median of five `PartitionProblem::cost`-per-candidate passes over
/// the median of five `eval_swarm` calls on the same random positions.
/// Above 1 the batched path wins; where the kernel reads `scalar` both
/// sides run the same scan and the ratio is its noise.
fn probe_eval(lane_counts: &[usize]) {
    let median_ms = |f: &mut dyn FnMut()| median((0..5).map(|_| wall_ms(&mut *f)).collect());
    let widest = lane_counts.iter().copied().max().unwrap_or(0);
    println!("crossbars objective  kernel    lanes scalar_ms batched_ms scalar/batched");
    for side in [16, 24, 32] {
        let scenario = LargeArch {
            side,
            ..LargeArch::grid16()
        };
        let graph = scenario.spike_graph(SEED).expect("scenario generates");
        let (n, c) = (graph.num_neurons() as usize, scenario.num_crossbars());
        let lut = DistanceLut::new(&Mesh2D::for_crossbars(c));
        let problem = PartitionProblem::new(&graph, c, scenario.capacity())
            .and_then(|p| p.with_hops(&lut))
            .expect("feasible, and the lut covers the arch");
        let mut rng = StdRng::seed_from_u64(7);
        let positions: Vec<u32> = (0..widest * n)
            .map(|_| rng.gen_range(0..c as u32))
            .collect();
        for kind in [
            FitnessKind::CutSpikes,
            FitnessKind::CutPackets,
            FitnessKind::CutHops,
        ] {
            let evaluator = SwarmEval::new(problem, kind);
            let mut scratch = SwarmScratch::default();
            for &lanes in lane_counts {
                let mut out = vec![0u64; lanes];
                let scalar = median_ms(&mut || {
                    for (row, cost) in positions.chunks(n).zip(&mut out) {
                        *cost = black_box(problem.cost(kind, row));
                    }
                });
                let batched = median_ms(&mut || {
                    evaluator.eval_swarm(&positions[..lanes * n], lanes, &mut scratch, &mut out);
                    black_box(&out);
                });
                let (tag, kernel) = (format!("{kind:?}"), evaluator.kernel().name());
                let ratio = scalar / batched;
                println!(
                    "{c:>9} {tag:<10} {kernel:<9} {lanes:>5} {scalar:>9.3} {batched:>10.3} {ratio:>14.2}"
                );
            }
        }
    }
}

/// The PSO velocity sweep, stage by stage, on the shapes mapbench's flat
/// swarms run (the digit app's 12 × 128 tree; 256, 576 and 1024-crossbar
/// grids): per shape, medians of five of `fill_velocity`, of `decode`
/// against `decode_reference`, and of the first and the eighth `step`
/// against `step_reference` — the walk deepens as velocities decay — each
/// with its cost per velocity, under a header line giving the floor: one
/// streaming read-multiply-write pass over the same buffer. `pbest` is
/// each particle's own decode and `gbest` particle 0's, as in the
/// `sweep/*` ledger pairs; both kernels must agree after every round.
fn probe_sweep() {
    const REPS: usize = 5;
    const ROUNDS: usize = 8;
    const STAGES: [&str; 4] = ["fill_velocity", "decode", "step round 1", "step round 8"];
    let digits = DigitRecognition::default()
        .build(SEED)
        .expect("digit app builds")
        .num_neurons();
    let hd = arch_for(digits);
    let grid = |side| {
        let scenario = LargeArch {
            side,
            ..LargeArch::grid16()
        };
        let (n, c) = (scenario.num_neurons() as usize, scenario.num_crossbars());
        (scenario.name(), n, c, scenario.capacity())
    };
    let shapes = [
        (
            "HD".to_owned(),
            digits as usize,
            hd.num_crossbars(),
            hd.neurons_per_crossbar(),
        ),
        grid(16),
        grid(24),
        grid(32),
    ];
    for (name, n, c, cap) in shapes {
        // ≈ 8 M velocities per side, at least two particles
        let particles = ((1 << 23) / (n * c)).clamp(2, 64);
        let (decoder, weights) = sweep::default_decoder(n, c, cap);
        let mut scratch = DecodeScratch::default();
        let mut floor = Vec::new();
        // per stage: the production, then the reference, samples
        let mut samples = [(); 4].map(|()| [Vec::new(), Vec::new()]);
        let mut swarm = Swarm::new(particles, n, c, SEED);
        swarm.fill(&decoder); // every page touched before anything is timed
        for _ in 0..REPS {
            let shrink = black_box(0.999f32);
            floor.push(wall_ms(|| {
                swarm.velocity.iter_mut().for_each(|v| *v *= shrink)
            }));
            samples[0][0].push(wall_ms(|| swarm.fill(&decoder)));

            let mut sides = [swarm.clone(), swarm];
            let kernels = [sweep::PRODUCTION, sweep::REFERENCE];
            for ((swarm, kernel), samples) in sides.iter_mut().zip(kernels).zip(&mut samples[1]) {
                samples.push(wall_ms(|| swarm.decode(&decoder, kernel, &mut scratch)));
            }
            assert!(sides[0] == sides[1], "{name}: decode diverged");
            let best = sides[0].positions.clone();
            for round in 1..=ROUNDS {
                for (side, (swarm, kernel)) in sides.iter_mut().zip(kernels).enumerate() {
                    let ms = wall_ms(|| swarm.step(&decoder, kernel, weights, &best, &mut scratch));
                    match round {
                        1 => samples[2][side].push(ms),
                        ROUNDS => samples[3][side].push(ms),
                        _ => {}
                    }
                }
                assert!(sides[0] == sides[1], "{name}: step {round} diverged");
            }
            [swarm, _] = sides;
        }

        let ns_per = |ms: f64| ms * 1e6 / swarm.velocity.len() as f64;
        println!(
            "sweep {name}: {n} neurons x {c} crossbars (capacity {cap}), {particles} particles; \
             streaming floor {:.2} ns/velocity (one read-multiply-write pass, median of {REPS})",
            ns_per(median(floor))
        );
        println!("  stage          production_ms ns/velocity reference_ms ns/velocity reference/production");
        for (stage, [production, reference]) in STAGES.iter().zip(samples) {
            let production = median(production);
            print!(
                "  {stage:<14} {production:>13.3} {:>11.2}",
                ns_per(production)
            );
            if !reference.is_empty() {
                let reference = median(reference);
                print!(
                    " {reference:>12.3} {:>11.2} {:>20.2}",
                    ns_per(reference),
                    reference / production
                );
            }
            println!();
        }
    }
}

/// Congested lanes the probe's spotter prints per workload.
const SPOTTER_TOP_LANES: usize = 4;
/// Dominant flows the spotter names per lane.
const SPOTTER_TOP_FLOWS: usize = 2;

/// Event-vs-oracle probe over the dense-saturation workloads (destinations
/// move every step: about one spike per net), repeated-net traffic (a
/// fixed net per neuron) on a 64- and a 1024-router mesh, and per-synapse
/// traffic (one unicast flow per remote synapse per spike) on a
/// 12-crossbar tree.
fn probe_noc() {
    let mut workloads = dense_workloads();
    workloads.extend(
        engine_workloads()
            .into_iter()
            .filter(|w| w.name == "mesh64_repeat_nets"),
    );
    workloads.push(NocWorkload {
        name: "mesh1024_repeat_nets",
        flows: repeated_net_traffic(1024, 4096, 6, 48, 4),
        topo: || Box::new(Mesh2D::for_crossbars(1024)),
        cfg: NocConfig::default(),
    });
    workloads.push(tree12_per_synapse());
    for w in workloads {
        let duration = w.flows.iter().map(|f| f.send_step + 1).max().unwrap_or(1);

        let start = Instant::now();
        let mut event = NocSim::new((w.topo)(), w.cfg, EnergyModel::default());
        let (ev, _, trace) = event
            .run_traced(&w.flows, duration)
            .expect("event engine drains");
        let event_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut oracle = NocSim::new((w.topo)(), w.cfg, EnergyModel::default())
            .with_engine(EngineKind::CycleOracle);
        let (or, _, _) = oracle
            .run_traced(&w.flows, duration)
            .expect("oracle drains");
        let oracle_s = start.elapsed().as_secs_f64();

        assert_eq!(
            ev.digest().unwrap(),
            or.digest().unwrap(),
            "{}: engines diverge",
            w.name
        );
        let s = trace.sched;
        println!(
            "noc/{}: event {:.1} ms, oracle {:.1} ms ({:.1}x), digest {:#018x}",
            w.name,
            event_s * 1e3,
            oracle_s * 1e3,
            oracle_s / event_s,
            ev.digest().unwrap()
        );
        println!(
            "  attended {} cycles ({} with progress); wakes: {} ports / {} router visits",
            trace.attended_cycles.len(),
            trace.progress_cycles.len(),
            s.port_wakes,
            s.router_visits,
        );
        println!(
            "  head updates {}, peak ready {}, peak wake heap {}",
            s.head_updates, s.peak_ready, s.peak_wake_heap
        );
        let c = ev.counters;
        println!(
            "  {} packets of {} nets ({:.1} spikes per net), {} plan nodes, at most {} handles live; {} router traversals at {:.0} host ns each",
            c.packets_injected,
            trace.nets,
            c.packets_injected as f64 / trace.nets.max(1) as f64,
            trace.plan_nodes,
            trace.peak_handles,
            c.router_traversals,
            event_s * 1e9 / c.router_traversals.max(1) as f64
        );
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "  phases: setup {:.1} ms, schedule {:.1} ms, loop {:.1} ms, statistics {:.1} ms",
            ms(trace.setup_time),
            ms(trace.schedule_time),
            ms(trace.loop_time),
            ms(trace.stats_time)
        );

        // congestion spotter over the structured event trace — a
        // separate run with tracing on, so the timed comparison above
        // stays trace-free
        let traced_cfg = NocConfig {
            trace: true,
            ..w.cfg
        };
        let mut traced = NocSim::new((w.topo)(), traced_cfg, EnergyModel::default());
        traced
            .run_with_duration(&w.flows, duration)
            .expect("traced event run drains");
        let buf = traced.take_trace().expect("tracing was on");
        let report = buf.spot_congestion(SPOTTER_TOP_LANES, SPOTTER_TOP_FLOWS);
        if report.lanes.is_empty() {
            println!("  spotter: no lane ever blocked on credit");
        } else {
            println!("  spotter: top congested lanes —");
            for line in report.to_string().lines() {
                println!("    {line}");
            }
        }
    }
}

/// Multilevel V-cycle probe on the 32 × 32-grid scenario: per-level
/// sizes, matching rates, refinement moves/accepts, and per-level wall
/// time — the decomposition trajectory behind the `multilevel/*` bench
/// ratios, printed level by level (coarsest last).
fn probe_multilevel() {
    let scenario = LargeArch::grid32();
    let graph = scenario.spike_graph(SEED).expect("scenario generates");
    let problem = PartitionProblem::new(&graph, scenario.num_crossbars(), scenario.capacity())
        .expect("feasible");
    println!(
        "graph: {} neurons, {} synapses; arch: {} crossbars x {}",
        graph.num_neurons(),
        graph.num_synapses(),
        scenario.num_crossbars(),
        scenario.capacity()
    );
    let cfg = MultilevelConfig {
        pso: PsoConfig {
            swarm_size: 8,
            iterations: 8,
            ..PsoConfig::default()
        },
        ..MultilevelConfig::default()
    };
    println!("{}", kernel_line(&problem, cfg.pso.fitness));
    let start = Instant::now();
    let out = vcycle(&problem, &cfg).expect("vcycle runs");
    let total = start.elapsed().as_secs_f64();
    for (l, s) in out.levels.iter().enumerate() {
        println!(
            "  level {l}: {} nodes, {} synapses, cap {}, matched {:.0}%, refine {}/{} accepted, {:.1} ms",
            s.num_neurons,
            s.num_synapses,
            s.capacity,
            s.matching_rate * 100.0,
            s.refine_accepted,
            s.refine_proposed,
            s.wall_s * 1e3
        );
    }
    println!(
        "vcycle: {total:.3} s total, cut-spikes {}, projected coarse cut {}{}",
        out.cost,
        out.projected_cost,
        if out.used_projection {
            " (projection won)"
        } else {
            ""
        }
    );
}

/// The placement optimizer on the three inputs
/// `default_placement_outcomes_are_frozen` pins (the scrambled
/// `synth_16x16grid` packing on a 256-crossbar mesh and torus, and the
/// same packing of a 2 × 2-chip 8 × 8 grid on its seam-weighted table):
/// per input, the median of five `optimize_placement` calls at the
/// default config and at `restarts: 1` (the greedy polish from the
/// identity only), each beside its outcome triple
/// `(optimized_cost, winning_restart, FNV-1a of the permutation)` — the
/// frozen test's triple at the default config.
fn probe_place() {
    let fnv = |perm: &[u32]| {
        perm.iter()
            .flat_map(|p| p.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    };
    let grid = LargeArch::grid16();
    let packing = grid.scrambled_packed_mapping(0x91A);
    let traffic_of =
        |graph: &SpikeGraph| TrafficMatrix::from_mapping(graph, &packing, TrafficMode::PerCrossbar);
    let grid_traffic = traffic_of(&grid.spike_graph(SEED).expect("scenario generates"));
    let chips = MultiChip {
        chip: LargeArch {
            side: 8,
            ..LargeArch::grid16()
        },
        ..MultiChip::four_chip16()
    };
    let chips_traffic = traffic_of(&chips.spike_graph(SEED).expect("scenario generates"));
    let hier = HierTopology::for_crossbars(
        chips.num_crossbars(),
        chips.chip_cols as usize,
        chips.chip_rows as usize,
        chips.link_latency,
        chips.link_width,
    )
    .expect("scenario parameters are valid")
    .distance_lut();
    let cases = [
        (
            "mesh256",
            &grid_traffic,
            Mesh2D::for_crossbars(256).distance_lut(),
        ),
        (
            "torus256",
            &grid_traffic,
            Torus::for_crossbars(256).distance_lut(),
        ),
        ("hier4x64", &chips_traffic, hier),
    ];
    println!("input    restarts median_ms  (optimized_cost, winning_restart, perm FNV-1a)");
    for (name, traffic, lut) in &cases {
        for restarts in [PlaceConfig::default().restarts, 1] {
            let cfg = PlaceConfig {
                restarts,
                ..PlaceConfig::default()
            };
            let mut outcome = None;
            let ms = median(
                (0..5)
                    .map(|_| {
                        wall_ms(|| {
                            outcome = Some(optimize_placement(traffic, lut, &cfg).expect("valid"));
                        })
                    })
                    .collect(),
            );
            let out = outcome.expect("five runs");
            println!(
                "{name:<8} {restarts:>8} {ms:>9.1}  ({}, {}, {:#018x})",
                out.optimized_cost,
                out.winning_restart,
                fnv(out.placement.as_slice())
            );
        }
    }
}

/// Prints usage to stderr and exits non-zero — bad arguments must not
/// silently degrade into a default-parameter run (the probe's numbers
/// are compared across PRs, so a typo would quietly probe the wrong
/// configuration).
fn usage(complaint: &str) -> ! {
    eprintln!("perf_probe: {complaint}");
    eprintln!(
        "usage: perf_probe [SWARM [ITERS]] | perf_probe eval [LANES...] | perf_probe sweep | perf_probe noc | perf_probe multilevel | perf_probe place"
    );
    eprintln!("  SWARM       positive swarm size (default 1000 when absent)");
    eprintln!("  ITERS       positive iteration count (default 100 when absent)");
    eprintln!("  eval        time the swarm evaluator against the scalar reference at each");
    eprintln!("              positive lane count (8 16 40 64 when absent)");
    eprintln!("  sweep       time the velocity sweep (fill, decode, step) against its scalar");
    eprintln!("              reference and the streaming floor of its buffer");
    eprintln!("  noc         probe the interconnect engines instead");
    eprintln!("  multilevel  probe the multilevel V-cycle on the 32x32-grid scenario");
    eprintln!("  place       time the placement optimizer on its three frozen inputs");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("eval") {
        let positive = |s: &String| match s.parse() {
            Ok(v) if v > 0 => v,
            _ => usage(&format!("invalid lane count `{s}`")),
        };
        let lanes: Vec<usize> = args[2..].iter().map(positive).collect();
        probe_eval(if lanes.is_empty() {
            &[8, 16, 40, 64]
        } else {
            &lanes
        });
        return;
    }
    let probes: [(&str, fn()); 4] = [
        ("sweep", probe_sweep),
        ("noc", probe_noc),
        ("multilevel", probe_multilevel),
        ("place", probe_place),
    ];
    for (name, probe) in probes {
        if args.get(1).map(String::as_str) == Some(name) {
            if args.len() > 2 {
                usage(&format!("`{name}` takes no further arguments"));
            }
            probe();
            return;
        }
    }
    if args.len() > 3 {
        usage("too many arguments");
    }
    let swarm: usize = match args.get(1) {
        None => 1000,
        Some(s) => match s.parse() {
            Ok(v) if v > 0 => v,
            _ => usage(&format!("invalid swarm size `{s}`")),
        },
    };
    let iters: u32 = match args.get(2) {
        None => 100,
        Some(s) => match s.parse() {
            Ok(v) if v > 0 => v,
            _ => usage(&format!("invalid iteration count `{s}`")),
        },
    };

    let app = Synthetic::new(2, 400);
    let graph = app.spike_graph(SEED).expect("synthetic app simulates");
    let arch = arch_for(graph.num_neurons());
    let problem = PartitionProblem::new(&graph, arch.num_crossbars(), arch.neurons_per_crossbar())
        .expect("feasible");
    println!(
        "graph: {} neurons, {} synapses; arch: {} crossbars x {}",
        graph.num_neurons(),
        graph.num_synapses(),
        arch.num_crossbars(),
        arch.neurons_per_crossbar()
    );

    let cfg = PsoConfig {
        swarm_size: swarm,
        iterations: iters,
        ..PsoConfig::paper()
    };
    println!("{}", kernel_line(&problem, cfg.fitness));
    let start = Instant::now();
    let (mapping, trace) = PsoPartitioner::new(cfg)
        .partition_traced(&problem)
        .expect("pso runs");
    let elapsed = start.elapsed();
    println!(
        "pso swarm={swarm} iters={iters} threads={}: {:.3} s, best cut-spikes {}",
        cfg.threads,
        elapsed.as_secs_f64(),
        problem.cut_spikes(mapping.assignment())
    );
    println!("converged at iteration {}", trace.converged_at);
}
