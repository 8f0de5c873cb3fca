//! Structured-trace repro: runs the `dense_burst16` engine-comparison
//! workload with event tracing on, proves the two engines emit
//! byte-identical event streams, writes the Perfetto/Chrome trace-viewer
//! export to `TRACE_noc.json` at the repo root (load it at
//! `ui.perfetto.dev` or `chrome://tracing`), and prints the congestion
//! spotter's ranking of the hottest `(router, port, VC)` lanes with the
//! flows that dominate them.
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_trace`

use neuromap_bench::noc_workloads::engine_workloads;
use neuromap_hw::energy::EnergyModel;
use neuromap_noc::config::NocConfig;
use neuromap_noc::sim::{EngineKind, NocSim};

/// Congested lanes the spotter ranks.
const TOP_LANES: usize = 8;
/// Dominant flows named per lane.
const TOP_FLOWS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = engine_workloads()
        .into_iter()
        .find(|w| w.name == "dense_burst16")
        .expect("dense_burst16 workload exists");
    let cfg = NocConfig {
        trace: true,
        ..w.cfg
    };
    let duration = w.flows.iter().map(|f| f.send_step + 1).max().unwrap_or(1);

    let mut event = NocSim::new((w.topo)(), cfg, EnergyModel::default());
    let stats = event.run_with_duration(&w.flows, duration)?;
    let trace = event.take_trace().expect("tracing was on");

    let mut oracle =
        NocSim::new((w.topo)(), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
    oracle.run_with_duration(&w.flows, duration)?;
    let oracle_trace = oracle.take_trace().expect("tracing was on");
    assert_eq!(
        trace.to_bytes(),
        oracle_trace.to_bytes(),
        "engines must emit byte-identical event streams"
    );

    println!(
        "noc/{}: {} events over {} cycles, {} delivered, digest {:#018x}",
        w.name,
        trace.len(),
        stats.total_cycles,
        stats.delivered,
        stats.digest()?
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_noc.json");
    std::fs::write(out, trace.to_perfetto_json())?;
    println!("wrote {out} (open at ui.perfetto.dev or chrome://tracing)");

    let report = trace.spot_congestion(TOP_LANES, TOP_FLOWS);
    if report.lanes.is_empty() {
        println!("spotter: no lane ever blocked on credit");
    } else {
        println!("spotter: top congested lanes —");
        print!("{report}");
    }
    Ok(())
}
