//! One run of one workload: the timed pass (end-to-end metrics) or the
//! traced pass (per-layer metrics), each in a process of its own.

use crate::calibrate::{scale_to_nominal, Calibrator};
use crate::metrics::{Metric, RunRecord, END_TO_END, PER_LAYER, RAW};
use crate::span::Tracer;
use crate::stats::{lower_quartile, median, Fnv};
use crate::workloads::{
    iterate, kernel_bits, Fabric, Flow, Input, Iteration, Prepared, Workload, CHECK_THREADS,
    THREADS,
};
use crate::Res;
use neuromap_core::pso::PsoPartitioner;
use neuromap_core::SpikeGraph;
use neuromap_noc::EngineKind;
use std::time::Instant;

/// Repetitions of the set-up block behind `setup_s`.
const SETUP_REPS: usize = 31;
/// Fewest traced iterations behind a per-layer timing: a single
/// iteration swings too far to read.
const MIN_TRACED_ITERS: usize = 3;
/// Inputs the timed pass of one run maps in turn. One input per run
/// made `map_wall_s` and the quality metrics move 5 to 10 % from seed
/// to seed; the mean over four inputs moves half as far.
const INPUTS_PER_RUN: usize = 4;

/// The seed input `slot` of a run is generated from. Runs of different
/// `--seed` share no input; the traced pass maps input 0 alone.
fn input_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_mul(INPUTS_PER_RUN as u64)
        .wrapping_add(slot as u64)
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Iterate until this many seconds have passed (and the pass's
    /// floor is met).
    Seconds(f64),
    /// Smoke mode: exactly this many iterations, one set-up repetition
    /// per input.
    Iters(usize),
}

impl Budget {
    fn setup_reps(self, full: usize) -> usize {
        match self {
            Budget::Seconds(_) => full,
            Budget::Iters(_) => full.min(INPUTS_PER_RUN),
        }
    }

    /// Whether a pass that has made `done` iterations since `start`,
    /// and needs `floor` at least, goes on.
    fn goes_on(self, done: usize, floor: usize, start: Instant) -> bool {
        match self {
            Budget::Seconds(s) => done < floor || start.elapsed().as_secs_f64() < s,
            Budget::Iters(n) => done < n,
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the inputs are made from it and nothing else is.
    pub seed: u64,
    /// How long to measure.
    pub budget: Budget,
}

/// Correctness checks, each one an operation counted into
/// `failed_share`.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    digest_changed: bool,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("mapbench: CHECK FAILED: {what}");
        }
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The per-iteration checks. `reference` is the first iteration's
    /// result digest, set by the first call.
    fn iteration(
        &mut self,
        label: &str,
        reference: &mut Option<u64>,
        outcome: Res<Iteration>,
    ) -> Option<Iteration> {
        let it = match outcome {
            Ok(it) => it,
            Err(e) => {
                self.check(&format!("{label}: iteration returns Ok ({e})"), false);
                // nothing it would have been checked on can pass
                for what in [
                    "mapping valid",
                    "events conserved",
                    "all delivered",
                    "digest repeats",
                ] {
                    self.check(&format!("{label}: {what}"), false);
                }
                return None;
            }
        };
        self.check(&format!("{label}: iteration returns Ok"), true);
        self.check(
            &format!("{label}: Mapping::validate accepts the mapping"),
            it.valid,
        );
        self.check(
            &format!(
                "{label}: local events {} + cut spikes {} == synaptic events {}",
                it.local_events, it.cut_spikes, it.graph_counts.2
            ),
            it.local_events + it.cut_spikes == it.graph_counts.2,
        );
        self.check(
            &format!(
                "{label}: delivered {} == unicast packets {}",
                it.stats.delivered, it.unicast_packets
            ),
            it.stats.delivered == it.unicast_packets,
        );
        let digest = it.digest();
        let same = match (&digest, *reference) {
            (Ok(d), Some(r)) => *d == r,
            (Ok(d), None) => {
                *reference = Some(*d);
                true
            }
            (Err(_), _) => false,
        };
        self.digest_changed |= !same;
        self.check(
            &format!("{label}: result digest equals iteration 1's"),
            same,
        );
        if let Some(joint) = &it.coopt {
            self.check(
                &format!("{label}: joint cost <= staged cost when the joint result is used"),
                !joint.used_joint || joint.joint_cost <= joint.staged_cost,
            );
        }
        if let Some((identity, optimized)) = it.place_costs {
            self.check(
                &format!("{label}: placed cost {optimized} <= identity cost {identity}"),
                optimized <= identity,
            );
        }
        Some(it)
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The spike graph an input maps: extracted for a simulated network,
/// borrowed otherwise.
fn graph_of(input: &Input) -> std::borrow::Cow<'_, SpikeGraph> {
    match input {
        Input::Snn(sim) => std::borrow::Cow::Owned(SpikeGraph::from_record(&sim.0, &sim.1)),
        Input::Graph(g) => std::borrow::Cow::Borrowed(g),
    }
}

fn record(plan: &Plan, traced: bool, references: &[Option<u64>], checks: &Checks) -> RunRecord {
    let input_digests: Vec<String> = references
        .iter()
        .map(|r| r.map_or_else(|| "unvisited".to_owned(), |d| format!("{d:016x}")))
        .collect();
    let all = references
        .iter()
        .fold(Fnv::default(), |h, r| h.u64(r.unwrap_or(0)))
        .finish();
    RunRecord {
        workload: plan.workload.name().to_owned(),
        seed: plan.seed,
        threads: THREADS as u32,
        traced,
        result_digest: format!("{all:016x}"),
        input_digests,
        attempted: checks.attempted,
        failed: checks.failed,
        correct: checks.failed == 0,
        metrics: Vec::new(),
    }
}

/// The quality numbers of one input's mapping; they repeat exactly on
/// every visit (the digest check), so the first visit's are kept.
struct Quality {
    cut_spikes: u64,
    hop_weighted_packets: u64,
    global_energy_pj: f64,
    avg_latency_cycles: f64,
    isi_distortion_cycles: f64,
}

/// The host time of one of a run's repeated blocks: the mean over the
/// run's inputs of the fastest repetition on each input. Neighbours on
/// the box only ever add to a reading, in bursts of about a second, so
/// an input's fastest visit says what the block costs and the median
/// says how busy the neighbours were; taking the fastest per input and
/// not of the whole run keeps every input's weight the same.
fn fastest_mean(per_input: &[Vec<f64>]) -> f64 {
    let fastest: Vec<f64> = per_input
        .iter()
        .filter(|visits| !visits.is_empty())
        .map(|visits| visits.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

/// The timed pass: set-up repetitions that leave [`INPUTS_PER_RUN`]
/// inputs behind, one warm-up, then the timed iterations, tracing off,
/// visiting the inputs in turn.
pub fn timed(plan: &Plan) -> Res<RunRecord> {
    let w = plan.workload;
    let config = w.config(THREADS, EngineKind::EventDriven, false)?;
    let flow = w.flow(THREADS);
    let mut off = Tracer::off();
    let mut checks = Checks::default();

    // repetition r makes input r mod K, replacing the one before it
    let mut setup_raw_s = vec![Vec::new(); INPUTS_PER_RUN];
    let mut calibrator = Calibrator::default();
    let mut calibration_s = vec![calibrator.run()];
    let mut prepared: Vec<Option<Prepared>> = (0..INPUTS_PER_RUN).map(|_| None).collect();
    for rep in 0..plan.budget.setup_reps(SETUP_REPS) {
        let slot = rep % INPUTS_PER_RUN;
        // the old one is freed before the clock starts
        prepared[slot] = None;
        let start = Instant::now();
        let p = w.prepare(input_seed(plan.seed, slot), config.clone(), &mut off)?;
        setup_raw_s[slot].push(start.elapsed().as_secs_f64());
        prepared[slot] = Some(p);
    }
    calibration_s.push(calibrator.run());
    let prepared: Vec<Prepared> = prepared.into_iter().flatten().collect();
    let mut references = vec![None; prepared.len()];

    // The warm-up, untimed, on the first input. Flat PSO then the
    // configured placement is what one `MappingPipeline::run` call
    // does, so there that call is the warm-up, and the first timed
    // iteration must reproduce its report: the harness-composed chain
    // measures the real pipeline.
    let first = &prepared[0];
    let mut whole_pipeline = None;
    if let Flow::Pso(pso) = &flow {
        let graph = graph_of(&first.input);
        whole_pipeline = Some(
            first
                .fabric
                .pipeline
                .run(&graph, &PsoPartitioner::new(*pso)),
        );
    } else {
        drop(checks.iteration(
            "warm-up",
            &mut references[0],
            iterate(&first.input, &first.fabric, &flow, &mut off),
        ));
    }

    // every input is visited at least twice, so its digest is seen to
    // repeat
    let floor = 2 * prepared.len();
    let mut wall_raw_s = vec![Vec::new(); prepared.len()];
    let mut quality: Vec<Option<Quality>> = prepared.iter().map(|_| None).collect();
    let start = Instant::now();
    let mut done = 0;
    while plan.budget.goes_on(done, floor, start) {
        let slot = done % prepared.len();
        let p = &prepared[slot];
        let t = Instant::now();
        let outcome = iterate(&p.input, &p.fabric, &flow, &mut off);
        wall_raw_s[slot].push(t.elapsed().as_secs_f64());
        calibration_s.push(calibrator.run());
        done += 1;
        let label = format!("iteration {done} (input {slot})");
        let Some(it) = checks.iteration(&label, &mut references[slot], outcome) else {
            continue;
        };
        if let Some(whole) = whole_pipeline.take().filter(|_| slot == 0) {
            let same = whole.is_ok_and(|report| {
                report.mapping == it.mapping
                    && report.cut_spikes == it.cut_spikes
                    && report.local_events == it.local_events
                    && report.local_energy_pj == it.local_energy_pj
                    && report.hop_weighted_packets == it.hop_weighted_packets
                    && report.noc == it.stats
            });
            checks.check(
                "the harness-composed chain equals one MappingPipeline::run call",
                same,
            );
        }
        if quality[slot].is_none() {
            quality[slot] = Some(Quality {
                cut_spikes: it.cut_spikes,
                hop_weighted_packets: it.hop_weighted_packets,
                global_energy_pj: it.stats.global_energy_pj,
                avg_latency_cycles: it.stats.avg_latency_cycles,
                isi_distortion_cycles: it.stats.avg_isi_distortion_cycles,
            });
        }
    }
    let visited: Vec<Quality> = quality.into_iter().flatten().collect();
    if visited.is_empty() {
        return Err("no timed iteration succeeded".into());
    }
    let mean =
        |f: &dyn Fn(&Quality) -> f64| visited.iter().map(f).sum::<f64>() / visited.len() as f64;

    // the calibration kernel ran before and after the set-up block and
    // after every iteration; it says how fast the box was
    let scale = scale_to_nominal(&calibration_s);
    let (wall_all, setup_all) = (wall_raw_s.concat(), setup_raw_s.concat());
    let (wall_raw, setup_raw) = (fastest_mean(&wall_raw_s), fastest_mean(&setup_raw_s));

    let mut rec = record(plan, false, &references, &checks);
    for m in END_TO_END {
        rec.metrics.push(match m.name {
            "map_wall_s" => Metric::summary_of(m.name, m.unit, wall_raw * scale, &wall_all),
            "setup_s" => Metric::summary_of(m.name, m.unit, setup_raw * scale, &setup_all),
            name => {
                let value = match name {
                    "peak_rss_mb" => peak_rss_mb()?,
                    "cut_spikes" => mean(&|q| q.cut_spikes as f64),
                    "hop_weighted_packets" => mean(&|q| q.hop_weighted_packets as f64),
                    "global_energy_pj" => mean(&|q| q.global_energy_pj),
                    "avg_latency_cycles" => mean(&|q| q.avg_latency_cycles),
                    "isi_distortion_cycles" => mean(&|q| q.isi_distortion_cycles),
                    other => return Err(format!("no value for end-to-end metric {other}").into()),
                };
                Metric::exact(name, m.unit, value)
            }
        });
    }
    rec.metrics.push(Metric::exact(
        "failed_share",
        "ratio",
        checks.failed_share(),
    ));
    rec.metrics.push(Metric::exact(
        "result_digest_changed",
        "0/1",
        f64::from(u8::from(checks.digest_changed)),
    ));
    for (name, unit) in RAW {
        rec.metrics.push(match name {
            "map_wall_raw_s" => Metric::summary_of(name, unit, wall_raw, &wall_all),
            "map_wall_median_s" => Metric::summary_of(name, unit, median(&wall_all), &wall_all),
            "setup_raw_s" => Metric::summary_of(name, unit, setup_raw, &setup_all),
            _ => Metric::summary_of(name, unit, lower_quartile(&calibration_s), &calibration_s),
        });
    }
    Ok(rec)
}

/// Count metrics of one iteration: everything in [`PER_LAYER`] that is
/// read from a return value and must repeat exactly.
fn layer_counts(flow: &Flow, fabric: &Fabric, it: &Iteration) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_owned(), v));
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let flag = |b: bool| f64::from(u8::from(b));

    put(
        "noc.topology.routers",
        fabric.pipeline.topology().num_routers() as f64,
    );
    put("core.graph.neurons", f64::from(it.graph_counts.0));
    put("core.graph.synapses", it.graph_counts.1 as f64);
    put("core.graph.spike_events", it.graph_counts.2 as f64);

    let pso = match (flow, &it.pso) {
        (Flow::Pso(cfg), Some(trace)) => Some((cfg, trace)),
        _ => None,
    };
    put(
        "core.pso.evaluations",
        pso.map_or(0.0, |(c, _)| c.swarm_size as f64 * f64::from(c.iterations)),
    );
    put(
        "core.pso.converged_at",
        pso.map_or(0.0, |(_, t)| f64::from(t.converged_at)),
    );
    put(
        "core.pso.best_cost",
        pso.and_then(|(_, t)| t.best_per_iteration.last())
            .map_or(0.0, |&c| c as f64),
    );
    put(
        "core.eval.kernel_bits",
        f64::from(kernel_bits(fabric.config.arch.num_crossbars())),
    );

    let ml = it.multilevel.as_ref();
    let proposed: u64 = ml.map_or(0, |m| m.levels.iter().map(|l| l.refine_proposed).sum());
    let accepted: u64 = ml.map_or(0, |m| m.levels.iter().map(|l| l.refine_accepted).sum());
    put(
        "core.multilevel.levels",
        ml.map_or(0.0, |m| m.levels.len() as f64),
    );
    put(
        "core.multilevel.coarsest_nodes",
        ml.and_then(|m| m.levels.last())
            .map_or(0.0, |l| f64::from(l.num_neurons)),
    );
    put("core.multilevel.refine_proposed", proposed as f64);
    put("core.multilevel.refine_accepted", accepted as f64);
    put(
        "core.multilevel.refine_accept_ratio",
        ratio(accepted as f64, proposed as f64),
    );
    put(
        "core.multilevel.used_projection",
        ml.map_or(0.0, |m| flag(m.used_projection)),
    );
    put("core.multilevel.cost", ml.map_or(0.0, |m| m.cost as f64));

    let joint = it.coopt.as_ref();
    put(
        "core.coopt.staged_cost",
        joint.map_or(0.0, |j| j.staged_cost as f64),
    );
    put(
        "core.coopt.joint_cost",
        joint.map_or(0.0, |j| j.joint_cost as f64),
    );
    put(
        "core.coopt.used_joint",
        joint.map_or(0.0, |j| flag(j.used_joint)),
    );
    put(
        "core.coopt.gain_ratio",
        joint.map_or(0.0, |j| {
            1.0 - ratio(j.joint_cost as f64, j.staged_cost as f64)
        }),
    );
    put(
        "core.coopt.trace_len",
        joint.map_or(0.0, |j| j.trace.len() as f64),
    );

    let (identity, optimized) = it.place_costs.unwrap_or((0, 0));
    put("core.place.identity_cost", identity as f64);
    put("core.place.optimized_cost", optimized as f64);
    put(
        "core.place.gain_ratio",
        it.place_costs
            .map_or(0.0, |_| 1.0 - ratio(optimized as f64, identity as f64)),
    );

    put("core.pipeline.flows", it.flows.len() as f64);
    put("core.pipeline.unicast_packets", it.unicast_packets as f64);

    let c = &it.stats.counters;
    put("noc.sim.packets_injected", c.packets_injected as f64);
    put("noc.sim.deliveries", c.deliveries as f64);
    put("noc.sim.router_traversals", c.router_traversals as f64);
    put("noc.sim.link_flits", c.link_flits as f64);
    put("noc.sim.buffer_flits", c.buffer_flits as f64);
    put("noc.sim.total_cycles", it.stats.total_cycles as f64);
    let sched = it.stats.sched.unwrap_or_default();
    put("noc.sched.wake_cycles", sched.wake_cycles as f64);
    put("noc.sched.port_wakes", sched.port_wakes as f64);
    put("noc.sched.router_visits", sched.router_visits as f64);
    put("noc.sched.head_updates", sched.head_updates as f64);
    put("noc.sched.peak_ready", sched.peak_ready as f64);
    put(
        "noc.sched.attended_ratio",
        ratio(sched.wake_cycles as f64, it.stats.total_cycles as f64),
    );
    put(
        "noc.vc.arb_losses",
        it.stats.per_vc.iter().map(|v| v.arb_losses).sum::<u64>() as f64,
    );
    put(
        "noc.stats.max_latency_cycles",
        it.stats.max_latency_cycles as f64,
    );
    put("noc.stats.disorder_fraction", it.stats.disorder_fraction);
    put(
        "noc.stats.throughput_aer_per_ms",
        it.stats.throughput_aer_per_ms,
    );
    out
}

/// The traced pass: set-up under spans, then untraced and traced
/// iterations alternating (their ratio is the tracing overhead), the
/// 1-thread rerun and, on two workloads, the cycle oracle. Returns the
/// per-layer record and the tracer holding every span.
pub fn traced(plan: &Plan) -> Res<(RunRecord, Tracer)> {
    let w = plan.workload;
    let threads = THREADS;
    let flow = w.flow(threads);
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    let mut checks = Checks::default();

    // set-up, recorded; the traced fabric attaches the scheduler counters
    let traced_config = w.config(threads, EngineKind::EventDriven, true)?;
    let mut prepared = None;
    for _ in 0..plan.budget.setup_reps(MIN_TRACED_ITERS) {
        drop(prepared.take());
        prepared = Some(w.prepare(input_seed(plan.seed, 0), traced_config.clone(), &mut tr)?);
    }
    let prepared = prepared.expect("at least one set-up repetition");
    let input = &prepared.input;
    let plain = Fabric::new(w.config(threads, EngineKind::EventDriven, false)?);

    let mut reference = None;
    drop(checks.iteration(
        "warm-up",
        &mut reference,
        iterate(input, &plain, &flow, &mut off),
    ));

    // untraced reference and traced iterations alternate, so drift hits
    // both alike and each gets half the budget
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut counts: Vec<Vec<(String, f64)>> = Vec::new();
    let mut level_wall_s = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while plan.budget.goes_on(traced_s.len(), MIN_TRACED_ITERS, start) {
        let done = traced_s.len();
        drop(last.take());
        let t = Instant::now();
        let outcome = iterate(input, &plain, &flow, &mut off);
        plain_s.push(t.elapsed().as_secs_f64());
        drop(checks.iteration(
            &format!("untraced iteration {}", done + 1),
            &mut reference,
            outcome,
        ));

        let t = Instant::now();
        let outcome = iterate(input, &prepared.fabric, &flow, &mut tr);
        traced_s.push(t.elapsed().as_secs_f64());
        last = checks.iteration(
            &format!("traced iteration {}", done + 1),
            &mut reference,
            outcome,
        );
        if let Some(it) = &last {
            counts.push(layer_counts(&flow, &prepared.fabric, it));
            level_wall_s.push(
                it.multilevel
                    .as_ref()
                    .map_or(0.0, |m| m.levels.iter().map(|l| l.wall_s).sum()),
            );
        }
    }
    let last = last.ok_or("the last traced iteration failed")?;
    checks.check(
        "per-layer counts are identical across the traced iterations",
        counts.len() == traced_s.len() && counts.windows(2).all(|p| p[0] == p[1]),
    );

    // thread-count invariance: one iteration with every `threads` at
    // another count
    let other = Fabric::new(w.config(CHECK_THREADS, EngineKind::EventDriven, false)?);
    let rerun = iterate(input, &other, &w.flow(CHECK_THREADS), &mut off);
    checks.check(
        &format!("threads = {CHECK_THREADS} yields the same result digest"),
        rerun
            .and_then(|it| it.digest())
            .is_ok_and(|d| Some(d) == reference),
    );

    // engine-vs-oracle: the same flows on the cycle-driven reference
    let mut oracle_match = 0.0;
    if w.oracle_checked() {
        let oracle = Fabric::new(w.config(threads, EngineKind::CycleOracle, false)?);
        let stats = tr.span("noc.oracle.simulate", |_| {
            oracle.pipeline.simulate(&last.flows, last.duration_steps)
        });
        let mut event = last.stats.clone();
        event.sched = None;
        let same = match (stats, event.digest()) {
            (Ok((oracle, _)), Ok(d)) => oracle.digest().is_ok_and(|o| o == d),
            _ => false,
        };
        checks.check(
            "the cycle oracle's NocStats digest equals the engine's",
            same,
        );
        oracle_match = f64::from(u8::from(same));
    }

    let stage_sums = tr.stage_sum_ratios("iteration");
    let stage_sum = median(&stage_sums);
    checks.check(
        &format!("stage self-times sum to the traced iteration (ratio {stage_sum:.4})"),
        (0.95..=1.05).contains(&stage_sum),
    );

    // ---- assemble the per-layer metrics ----
    let span_s = |span: &str| {
        let d = tr.durations_s(span);
        if d.is_empty() {
            vec![0.0]
        } else {
            d
        }
    };
    let count = |name: &str| {
        counts
            .last()
            .and_then(|c| c.iter().find(|(n, _)| n == name))
            .map(|&(_, v)| v)
    };
    let (steps, spikes) = match input {
        Input::Snn(sim) => (f64::from(sim.1.steps()), sim.1.total_spikes() as f64),
        Input::Graph(_) => (0.0, 0.0),
    };
    let per_unit = |seconds: f64, units: f64| {
        if units == 0.0 {
            0.0
        } else {
            seconds * 1e9 / units
        }
    };
    let sim_s = median(&span_s("noc.sim.simulate"));
    let pso_s = median(&span_s("core.pso.partition"));

    let mut rec = record(plan, true, &[reference], &checks);
    for (name, unit, _) in PER_LAYER {
        let timing = |span: &str| Metric::median_of(name, unit, &span_s(span));
        rec.metrics.push(match name {
            "snn.simulate_s" => timing("snn.simulate"),
            "input.generate_s" => timing("input.generate"),
            "noc.topology.build_s" => timing("noc.topology.build"),
            "core.graph.extract_s" => timing("core.graph.extract"),
            "core.pso.partition_s" => timing("core.pso.partition"),
            "core.multilevel.vcycle_s" => timing("core.multilevel.vcycle"),
            "core.coopt.co_optimize_s" => timing("core.coopt.co_optimize"),
            "core.place.optimize_s" => timing("core.place.optimize"),
            "core.place.traffic_matrix_s" => timing("core.place.traffic_matrix"),
            "core.pipeline.packetize_s" => timing("core.pipeline.packetize"),
            "core.pipeline.hop_metrics_s" => timing("core.pipeline.hop_metrics"),
            "core.pipeline.report_s" => timing("core.pipeline.report"),
            "noc.sim.simulate_s" => timing("noc.sim.simulate"),
            "noc.oracle.simulate_s" => timing("noc.oracle.simulate"),
            "core.multilevel.level_wall_s_sum" => Metric::median_of(name, unit, &level_wall_s),
            "trace.stage_sum_ratio" => Metric::median_of(name, unit, &stage_sums),
            other => {
                let value = match other {
                    "snn.steps" => steps,
                    "snn.spikes" => spikes,
                    "core.pso.ns_per_evaluation" => {
                        per_unit(pso_s, count("core.pso.evaluations").unwrap_or(0.0))
                    }
                    "noc.sim.host_ns_per_link_flit" => {
                        per_unit(sim_s, count("noc.sim.link_flits").unwrap_or(0.0))
                    }
                    "noc.sim.sim_cycles_per_host_s" => {
                        count("noc.sim.total_cycles").unwrap_or(0.0) / sim_s
                    }
                    "noc.oracle.digest_match" => oracle_match,
                    "trace.overhead_ratio" => median(&traced_s) / median(&plain_s),
                    "failed_share" => checks.failed_share(),
                    "result_digest_changed" => f64::from(u8::from(checks.digest_changed)),
                    counted => count(counted)
                        .ok_or_else(|| format!("no value for per-layer metric {counted}"))?,
                };
                Metric::exact(name, unit, value)
            }
        });
    }
    Ok((rec, tr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HEALTH;

    /// The `--iters 1` smoke pass: both passes of one workload on a seed
    /// the workloads were not sized on, every check passing and every
    /// metric the issue lists present, once each, under its own name.
    fn smoke(workload: Workload) {
        let plan = Plan {
            workload,
            seed: 7,
            budget: Budget::Iters(1),
        };
        let rec = timed(&plan).expect("timed pass runs");
        assert!(
            rec.correct,
            "{} of {} checks failed",
            rec.failed, rec.attempted
        );
        let names: Vec<&str> = rec.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END
            .iter()
            .chain(&HEALTH)
            .map(|m| m.name)
            .chain(RAW.map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
        for m in &rec.metrics[..END_TO_END.len()] {
            assert!(m.value > 0.0, "{} must never read 0", m.name);
        }
        assert!(rec.driver_line().starts_with("{\"correct\":true,"));

        let (layers, tracer) = traced(&plan).expect("traced pass runs");
        assert!(
            layers.correct,
            "{} of {} checks failed",
            layers.failed, layers.attempted
        );
        // the traced pass maps the timed pass's first input
        assert_eq!(layers.input_digests[0], rec.input_digests[0]);
        let names: Vec<&str> = layers.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        assert!(layers.metrics.iter().all(|m| m.value.is_finite()));
        let oracle = layers.metric("noc.oracle.digest_match").unwrap().value;
        assert_eq!(oracle == 1.0, workload.oracle_checked());
        assert!(tracer
            .to_chrome_json(workload.name())
            .contains("noc.sim.simulate"));
    }

    #[test]
    fn fastest_mean_weighs_every_visited_input_alike() {
        // three visits, one visit, none (smoke mode): (1 + 5) / 2
        assert_eq!(fastest_mean(&[vec![3.0, 1.0, 2.0], vec![5.0], vec![]]), 3.0);
    }

    #[test]
    fn smoke_hd_tree_paper() {
        smoke(Workload::HdTreePaper);
    }

    #[test]
    fn smoke_grid16_mesh_staged() {
        smoke(Workload::Grid16MeshStaged);
    }

    #[test]
    fn smoke_grid16_torus_joint_trees() {
        smoke(Workload::Grid16TorusJointTrees);
    }

    #[test]
    fn smoke_chip4_hier_multilevel() {
        smoke(Workload::Chip4HierMultilevel);
    }

    #[test]
    fn smoke_grid24_mesh_flathops() {
        smoke(Workload::Grid24MeshFlathops);
    }
}
