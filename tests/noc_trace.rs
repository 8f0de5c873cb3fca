//! Golden trace: the structured event trace of a small fixed workload,
//! exported through the Perfetto formatter, pinned byte-for-byte against
//! `tests/golden/trace_small.json`.
//!
//! This freezes two things at once: the event stream the engines emit
//! (order, fields, cycle stamps) and the exporter's exact output format
//! (what a trace viewer ingests). A diff here means tracing semantics or
//! the export format drifted — if the change is intentional, regenerate
//! with `NEUROMAP_REGEN_GOLDEN=1 cargo test --test noc_trace` and commit
//! the new file alongside the change that explains it.

use neuromap::hw::energy::EnergyModel;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::{EngineKind, NocSim};
use neuromap::noc::topology::Mesh2D;
use neuromap::noc::traffic::SpikeFlow;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.json");

/// Small deterministic workload: a multicast storm on an 8-crossbar
/// mesh, busy enough to exercise every event kind (including
/// blocked-on-credit spans — depth 1 guarantees stalls) while keeping
/// the golden file reviewable.
fn small_workload() -> Vec<SpikeFlow> {
    let crossbars = 8u32;
    let mut flows = Vec::new();
    for step in 0..3 {
        for src in 0..crossbars {
            flows.push(SpikeFlow::multicast(
                src * 31 + step,
                src,
                vec![(src + 1) % crossbars, (src + 3) % crossbars],
                step,
            ));
        }
    }
    flows
}

#[test]
fn small_trace_matches_golden_perfetto_export() {
    let cfg = NocConfig {
        buffer_depth: 1,
        trace: true,
        ..NocConfig::default()
    };
    let flows = small_workload();

    let mut event = NocSim::new(
        Box::new(Mesh2D::for_crossbars(8)),
        cfg,
        EnergyModel::default(),
    );
    event.run_with_duration(&flows, 3).expect("event drains");
    let trace = event.take_trace().expect("tracing was on");

    let mut oracle = NocSim::new(
        Box::new(Mesh2D::for_crossbars(8)),
        cfg,
        EnergyModel::default(),
    )
    .with_engine(EngineKind::CycleOracle);
    oracle.run_with_duration(&flows, 3).expect("oracle drains");
    let oracle_trace = oracle.take_trace().expect("tracing was on");
    assert_eq!(
        trace.to_bytes(),
        oracle_trace.to_bytes(),
        "engines must emit byte-identical event streams"
    );

    // the trace must cover every event kind, or the golden is too weak
    // to pin anything
    use neuromap::noc::trace::TraceEvent;
    let mut kinds = [false; 6];
    for e in trace.events() {
        kinds[match e {
            TraceEvent::Injected { .. } => 0,
            TraceEvent::Enqueued { .. } => 1,
            TraceEvent::Forwarded { .. } => 2,
            TraceEvent::Dequeued { .. } => 3,
            TraceEvent::Delivered { .. } => 4,
            TraceEvent::BlockedOnCredit { .. } => 5,
        }] = true;
    }
    assert!(
        kinds.iter().all(|&k| k),
        "workload must exercise every event kind, got {kinds:?}"
    );

    let rendered = trace.to_perfetto_json();
    if std::env::var_os("NEUROMAP_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        eprintln!("regenerated {GOLDEN_PATH} ({} bytes)", rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists — regenerate with NEUROMAP_REGEN_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "Perfetto export drifted from tests/golden/trace_small.json; \
         if intentional, regenerate with NEUROMAP_REGEN_GOLDEN=1"
    );
}
