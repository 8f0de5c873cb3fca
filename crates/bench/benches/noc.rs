//! Interconnect benchmarks: the same-run pairs behind `BENCH_noc.json` —
//! the event-driven engine against the cycle-driven oracle on the
//! engine-comparison workloads (`neuromap_bench::noc_workloads`, shared
//! with `perf_probe noc`) and on a multi-chip fabric, tracing on against
//! off on the dense point, and Steiner multicast trees against
//! per-destination routes (on clustered one-shot multicast and on nets
//! that repeat).
//!
//! The row rule and the gate table are `neuromap_bench::ledger`'s
//! ([`ledger::NOC`]): every row is one side of a pair, every pair is
//! gated after the JSON is written, and a failed gate exits non-zero.
//! Absolute simulator timings are mapbench's (`noc.sim.*` on all five
//! workloads), not this file's. Before timing anything, every
//! engine-comparison workload is differentially checked: the two engines
//! must produce byte-identical statistics (digest equality), so the
//! numbers always compare equals.
//!
//! Knob: `NEUROMAP_BENCH_FAST=1` — 1-sample smoke run (the CI gate).

use criterion::{BenchmarkId, Criterion};
use neuromap_bench::ledger;
use neuromap_bench::noc_workloads::{burst_traffic, engine_workloads, NocWorkload};
use neuromap_hw::energy::EnergyModel;
use neuromap_noc::config::NocConfig;
use neuromap_noc::sim::{EngineKind, NocSim};
use neuromap_noc::topology::{HierTopology, Mesh2D, Topology};
use neuromap_noc::traffic::SpikeFlow;

/// Differential gate: both engines must digest-match on `w` before their
/// timings are worth comparing. Returns the shared digest.
fn assert_engines_agree(w: &NocWorkload) -> u64 {
    let mut event = NocSim::new((w.topo)(), w.cfg, EnergyModel::default());
    let mut oracle =
        NocSim::new((w.topo)(), w.cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
    let ev = event.run(&w.flows).expect("event engine drains");
    let or = oracle.run(&w.flows).expect("oracle drains");
    assert_eq!(
        ev.digest().unwrap(),
        or.digest().unwrap(),
        "{}: engines diverge — benchmark numbers would be meaningless",
        w.name
    );
    if w.cfg.vc_count > 1 {
        assert!(
            ev.per_vc.iter().all(|v| v.forwarded > 0),
            "{}: VC workload must exercise every VC: {:?}",
            w.name,
            ev.per_vc
        );
    }
    ev.digest().unwrap()
}

/// Digest-gates `w`, then times it under both engines as
/// `<family>/<name>/{event,oracle}`.
fn bench_engine_pair(c: &mut Criterion, family: &str, w: &NocWorkload) {
    let digest = assert_engines_agree(w);
    println!("{family}/{}: differential digest {digest:#018x} OK", w.name);
    let mut group = c.benchmark_group(format!("{family}/{}", w.name));
    group.sample_size(10);
    for (side, engine) in [
        ("event", EngineKind::EventDriven),
        ("oracle", EngineKind::CycleOracle),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(side), w, |b, w| {
            b.iter(|| {
                let mut sim =
                    NocSim::new((w.topo)(), w.cfg, EnergyModel::default()).with_engine(engine);
                sim.run(&w.flows).expect("traffic drains")
            });
        });
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    for w in engine_workloads() {
        bench_engine_pair(c, "engine", &w);
    }
}

/// Event-vs-oracle on the multi-chip hierarchical fabric (2 × 2 chips of
/// a 4 × 4 mesh joined by latency-4 × width-2 boundary links, 2 VCs) —
/// the `hier_engine/multichip64` group and paired ratio in
/// `BENCH_noc.json`. Digest-gated like the flat `engine/*` groups, so
/// the engines must byte-agree across chip-boundary links before their
/// timings are compared.
fn bench_hier_engines(c: &mut Criterion) {
    let w = NocWorkload {
        name: "multichip64",
        flows: burst_traffic(64, 128, 10),
        topo: || Box::new(HierTopology::for_crossbars(64, 2, 2, 4, 2).expect("valid fabric")),
        cfg: NocConfig {
            vc_count: 2,
            ..NocConfig::default()
        },
    };
    bench_engine_pair(c, "hier_engine", &w);
}

/// Trace-overhead bench: the event engine with [`NocConfig::trace`] on
/// vs off over the dense point. Tracing is opt-in and must be zero-cost
/// when off (the `engine/*` groups above run untraced and their gated
/// ratios would catch a regression); this group tracks the cost when it
/// is *on* — the `trace/dense_burst16` ratio in `BENCH_noc.json`,
/// ceiling-gated in [`ledger::NOC`] so the hot loops never silently pick
/// up per-event work that makes tracing unusable on dense traffic.
fn bench_trace_overhead(c: &mut Criterion) {
    let w = engine_workloads()
        .into_iter()
        .find(|w| w.name == "dense_burst16")
        .expect("dense_burst16 workload exists");
    let traced_cfg = NocConfig {
        trace: true,
        ..w.cfg
    };
    let mut group = c.benchmark_group("trace/dense_burst16");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("off"), &w, |b, w| {
        b.iter(|| {
            let mut sim = NocSim::new((w.topo)(), w.cfg, EnergyModel::default());
            sim.run(&w.flows).expect("traffic drains")
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("on"), &w, |b, w| {
        b.iter(|| {
            let mut sim = NocSim::new((w.topo)(), traced_cfg, EnergyModel::default());
            sim.run(&w.flows).expect("traffic drains")
        });
    });
    group.finish();
}

/// Per-destination DOR routes vs Steiner multicast trees
/// ([`NocConfig::multicast_trees`]) on a 64-router mesh — the
/// `trees/<name>` paired ratios in `BENCH_noc.json`. Before timing, the
/// tree configuration is differentially gated (both engines must
/// digest-match with trees on, mirroring the `engine/*` groups) and trees
/// must actually shed link traffic relative to per-destination routes.
fn bench_tree_pair(c: &mut Criterion, name: &str, flows: &[SpikeFlow]) {
    let per_dest = NocConfig::default();
    let trees = NocConfig {
        multicast_trees: true,
        ..per_dest
    };
    let mesh = || -> Box<dyn Topology> { Box::new(Mesh2D::for_crossbars(64)) };
    let ev = {
        let mut event = NocSim::new(mesh(), trees, EnergyModel::default());
        let mut oracle =
            NocSim::new(mesh(), trees, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let ev = event.run(flows).expect("event engine drains");
        let or = oracle.run(flows).expect("oracle drains");
        assert_eq!(
            ev.digest().unwrap(),
            or.digest().unwrap(),
            "trees/{name}: engines diverge under tree routing — \
             benchmark numbers would be meaningless"
        );
        ev
    };
    let pd = NocSim::new(mesh(), per_dest, EnergyModel::default())
        .run(flows)
        .expect("traffic drains");
    assert_eq!(
        ev.delivered, pd.delivered,
        "routing must not change deliveries"
    );
    assert!(
        ev.counters.link_flits < pd.counters.link_flits,
        "REGRESSION: Steiner trees must shed link traffic on trees/{name} ({} !< {})",
        ev.counters.link_flits,
        pd.counters.link_flits
    );
    println!(
        "trees/{name}: link flits {} -> {} ({:.1}% lower)",
        pd.counters.link_flits,
        ev.counters.link_flits,
        100.0 * (1.0 - ev.counters.link_flits as f64 / pd.counters.link_flits as f64)
    );
    let mut group = c.benchmark_group(format!("trees/{name}"));
    group.sample_size(10);
    for (side, cfg) in [("perdest", per_dest), ("trees", trees)] {
        group.bench_with_input(BenchmarkId::from_parameter(side), flows, |b, f| {
            b.iter(|| {
                let mut sim = NocSim::new(mesh(), cfg, EnergyModel::default());
                sim.run(f).expect("traffic drains")
            });
        });
    }
    group.finish();
}

fn bench_tree_routing(c: &mut Criterion) {
    // clustered destinations (two corner blocks), fan-out 6: dimension-order
    // routes reach each cluster through parallel columns, while the Steiner
    // attach rule rides one path into the cluster and fans out locally —
    // spread-out destinations would degenerate to the DOR union. Every
    // source crossbar is its own net here, three spikes apiece
    let clustered: Vec<SpikeFlow> = (0..200u32)
        .map(|i| SpikeFlow::multicast(i, i % 64, vec![48, 54, 55, 56, 62, 63], i / 40))
        .collect();
    bench_tree_pair(c, "mesh64_multicast", &clustered);
    // the regime tree routing serves in the mapper: a fixed net per neuron
    // fired many times, so each tree is asked for and walked once
    let repeated = engine_workloads()
        .into_iter()
        .find(|w| w.name == "mesh64_repeat_nets")
        .expect("mesh64_repeat_nets workload exists");
    bench_tree_pair(c, repeated.name, &repeated.flows);
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_engines(&mut c);
    bench_hier_engines(&mut c);
    bench_trace_overhead(&mut c);
    bench_tree_routing(&mut c);

    if let Err(failed) = ledger::NOC.publish(c.summaries()) {
        eprintln!("BENCH_noc.json gates failed:\n{failed}");
        std::process::exit(1);
    }
}
