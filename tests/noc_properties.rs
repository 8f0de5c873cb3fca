//! Property-based tests over the interconnect simulator.
//!
//! Two layers:
//!
//! * **Differential verification** — the event-driven engine
//!   ([`NocSim`]) must produce *byte-identical* statistics and delivery
//!   logs to the cycle-driven oracle ([`EngineKind::CycleOracle`]) across
//!   randomized topologies, FIFO depths, packet sizes, multicast fan-outs
//!   and their single-destination splits, bursty/backpressured traffic,
//!   and cycle-budget errors. This corpus is the correctness story for
//!   the event engine: any divergence in timing, arbitration order,
//!   credit accounting, or budget handling shows up here as a non-equal
//!   stats digest or log.
//! * **Conservation/sanity properties** — every flow delivered exactly
//!   once per destination, latency bounded below by hop count, energy
//!   counters consistent, input-permutation invariance.
//!
//! `NEUROMAP_PROPTEST_CASES` overrides the per-test case count (CI runs a
//! higher-case pass over this suite; see `scripts/verify.sh`).
//!
//! The virtual-channel campaign adds three layers on top:
//!
//! * **Golden digests** — deterministic scenarios whose `vc_count = 1`
//!   stats digests are pinned to the values the pre-VC engines produced,
//!   so the VC refactor provably changed nothing at one VC (wire shape
//!   included: per-VC counters only serialize when `vc_count > 1`).
//!   A second table freezes stats digests *and* trace-byte hashes on the
//!   multi-VC, tree-routed and multi-chip paths: both engines run one
//!   router loop, so its mechanics are pinned by constants recorded while
//!   two independent loops still agreed on them.
//! * **Deadlock regression** — a minimal ring torus under bursty
//!   multicast with depth-1 FIFOs provably wedges at one VC
//!   (`CycleBudgetExhausted` with zero forward progress between two
//!   budgets) and completes at two VCs, in both engines.
//! * **VC differential corpus** — `vc_count ∈ {1, 2, 4}` × FIFO depths
//!   1–4 on mesh and torus (wraparound rings of length 4, the
//!   deadlock-capable shape), multicast and single-destination flows,
//!   byte-identical across engines, plus input-permutation bit-invariance
//!   under VC contention.

use neuromap::hw::energy::EnergyModel;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::{EngineKind, NocSim};
use neuromap::noc::stats::{disorder_fraction, isi_distortion, Counters, Delivery, NocStats};
use neuromap::noc::topology::{
    check_vc_tree_dependencies, HierTopology, Mesh2D, NocTree, PointToPoint, Star, Topology, Torus,
};
use neuromap::noc::traffic::SpikeFlow;
use neuromap::noc::NocError;
use proptest::prelude::*;

mod common;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CROSSBARS: u32 = 8;

fn arb_flows(max_flows: usize) -> impl Strategy<Value = Vec<SpikeFlow>> {
    common::arb_flows(CROSSBARS, 4, 6, max_flows)
}

/// Hotspot traffic: many sources, one destination crossbar — the shape
/// that drives credit backpressure and round-robin contention hardest.
fn arb_hotspot(max_flows: usize) -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..1000,      // source neuron
            1u32..CROSSBARS, // src crossbar (never the hotspot)
            0u32..3,         // send step: tight bursts
        ),
        1..max_flows,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(neuron, src, step)| SpikeFlow::unicast(neuron, src, 0, step))
            .collect()
    })
}

fn topologies() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(Mesh2D::for_crossbars(CROSSBARS as usize)),
        Box::new(Torus::for_crossbars(CROSSBARS as usize)),
        Box::new(NocTree::new(CROSSBARS as usize, 4)),
        Box::new(NocTree::new(CROSSBARS as usize, 2)),
        Box::new(Star::new(CROSSBARS as usize)),
        Box::new(PointToPoint::new(CROSSBARS as usize)),
    ]
}

fn topology(idx: usize) -> Box<dyn Topology> {
    topologies().swap_remove(idx % 6)
}

/// Runs both engines and asserts byte-identical outcomes (stats *and*
/// delivery logs on success, the exact error on failure).
fn assert_engines_agree(
    topo_idx: usize,
    cfg: NocConfig,
    flows: &[SpikeFlow],
    duration: u32,
) -> Result<(), String> {
    let mut event = NocSim::new(topology(topo_idx), cfg, EnergyModel::default());
    let mut oracle = NocSim::new(topology(topo_idx), cfg, EnergyModel::default())
        .with_engine(EngineKind::CycleOracle);
    let name = event.topology().name();
    let ev: Result<(NocStats, Vec<Delivery>), NocError> = event.run_logged(flows, duration);
    let or = oracle.run_logged(flows, duration);
    match (ev, or) {
        (Ok((es, ed)), Ok((os, od))) => {
            prop_assert_eq!(&ed, &od, "{}: delivery logs diverge", &name);
            // byte-identical: compare the serialized form, not just the
            // (float-tolerant-looking) PartialEq
            let ej = serde_json::to_string(&es).expect("stats serialize");
            let oj = serde_json::to_string(&os).expect("stats serialize");
            prop_assert_eq!(&ej, &oj, "{}: stats bytes diverge", &name);
            prop_assert_eq!(
                es.digest().unwrap(),
                os.digest().unwrap(),
                "{}: digests diverge",
                &name
            );
        }
        (Err(ee), Err(oe)) => {
            prop_assert_eq!(&ee, &oe, "{}: errors diverge", &name);
        }
        (ev, or) => {
            return Err(format!(
                "{name}: one engine failed, the other did not: event={ev:?} oracle={or:?}"
            ));
        }
    }
    Ok(())
}

/// Deterministic Fisher–Yates permutation of `flows`.
fn shuffled(flows: &[SpikeFlow], seed: u64) -> Vec<SpikeFlow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = flows.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

// ---------------- virtual-channel campaign ----------------

/// Crossbar count of the VC corpus: a 4×4 torus has wraparound rings of
/// length 4, the minimal shape whose channel-dependency graph is cyclic
/// at one VC (rings of length 3 never take two same-direction hops).
const VC_CROSSBARS: u32 = 16;

fn vc_topology(mesh: bool) -> Box<dyn Topology> {
    if mesh {
        Box::new(Mesh2D::for_crossbars(VC_CROSSBARS as usize))
    } else {
        Box::new(Torus::for_crossbars(VC_CROSSBARS as usize))
    }
}

fn arb_vc_flows(max_flows: usize) -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..1000,
            0u32..VC_CROSSBARS,
            proptest::collection::vec(0u32..VC_CROSSBARS, 1..5),
            0u32..4,
        ),
        0..max_flows,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(neuron, src, dsts, step)| SpikeFlow::multicast(neuron, src, dsts, step))
            .collect()
    })
}

/// Few nets, each fired many times: up to five neurons with a fixed
/// destination list apiece (raw — duplicates, the source itself and any
/// order survive), each firing at a drawn subset of 12 steps. Every other
/// generator here draws its destinations per spike, so no two packets of
/// a case share a net; the mapped SNN traffic the simulator exists for is
/// the opposite. Crossbar ids are drawn wide and folded by the caller.
fn arb_repeated_nets() -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..1000,
            proptest::collection::vec(0u32..1000, 1..7),
            proptest::collection::vec(any::<bool>(), 12),
        ),
        1..6,
    )
    .prop_map(|nets| {
        let mut flows = Vec::new();
        for (neuron, (src, dsts, fires)) in nets.into_iter().enumerate() {
            for (step, _) in fires.iter().enumerate().filter(|(_, &f)| f) {
                flows.push(SpikeFlow {
                    source_neuron: neuron as u32,
                    src_crossbar: src,
                    dst_crossbars: dsts.as_slice().into(),
                    send_step: step as u32,
                });
            }
        }
        flows
    })
}

/// Like [`assert_engines_agree`], but over an explicit topology builder
/// (the VC corpus pins mesh/torus instead of indexing the shared list).
fn assert_engines_agree_on(
    topo: impl Fn() -> Box<dyn Topology>,
    cfg: NocConfig,
    flows: &[SpikeFlow],
    duration: u32,
) -> Result<(), String> {
    let mut event = NocSim::new(topo(), cfg, EnergyModel::default());
    let mut oracle =
        NocSim::new(topo(), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
    let name = format!("{} vc={}", event.topology().name(), cfg.vc_count);
    let ev = event.run_logged(flows, duration);
    let or = oracle.run_logged(flows, duration);
    match (ev, or) {
        (Ok((es, ed)), Ok((os, od))) => {
            prop_assert_eq!(&ed, &od, "{}: delivery logs diverge", &name);
            let ej = serde_json::to_string(&es).expect("stats serialize");
            let oj = serde_json::to_string(&os).expect("stats serialize");
            prop_assert_eq!(&ej, &oj, "{}: stats bytes diverge", &name);
            prop_assert_eq!(
                es.digest().unwrap(),
                os.digest().unwrap(),
                "{}: digests diverge",
                &name
            );
            prop_assert_eq!(
                es.per_vc.len(),
                if cfg.vc_count > 1 { cfg.vc_count } else { 0 },
                "{}: per-VC counters sized wrong",
                &name
            );
        }
        (Err(ee), Err(oe)) => {
            prop_assert_eq!(&ee, &oe, "{}: errors diverge", &name);
        }
        (ev, or) => {
            return Err(format!(
                "{name}: one engine failed, the other did not: event={ev:?} oracle={or:?}"
            ));
        }
    }
    Ok(())
}

/// The minimal deterministic wedge: every ring node multicasts past its
/// neighbor through the wraparound, depth-1 FIFOs, bursty steps.
fn ring_deadlock_flows() -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for step in 0..2u32 {
        for i in 0..4u32 {
            flows.push(SpikeFlow::multicast(
                i * 10 + step,
                i,
                vec![(i + 1) % 4, (i + 2) % 4],
                step,
            ));
        }
    }
    flows
}

fn ring_deadlock_cfg(vc_count: usize, max_cycles: u64) -> NocConfig {
    NocConfig {
        buffer_depth: 1,
        vc_count,
        max_cycles,
        ..NocConfig::default()
    }
}

#[test]
fn torus_deadlock_wedges_without_vcs_and_completes_with_two() {
    let ring = || -> Box<dyn Topology> { Box::new(Torus::grid(4, 1, 4)) };
    let flows = ring_deadlock_flows();

    // one VC: both engines exhaust the cycle budget identically
    let run = |vc: usize, budget: u64| {
        let mut ev = NocSim::new(
            ring(),
            ring_deadlock_cfg(vc, budget),
            EnergyModel::default(),
        );
        let mut or = NocSim::new(
            ring(),
            ring_deadlock_cfg(vc, budget),
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        (ev.run_logged(&flows, 2), or.run_logged(&flows, 2))
    };
    let (ev, or) = run(1, 20_000);
    let ev_err = ev.expect_err("single-VC ring must wedge");
    let or_err = or.expect_err("single-VC ring must wedge in the oracle too");
    assert_eq!(ev_err, or_err, "engines must report the identical wedge");
    let NocError::CycleBudgetExhausted {
        budget: 20_000,
        in_flight,
    } = ev_err
    else {
        panic!("expected CycleBudgetExhausted, got {ev_err:?}");
    };
    assert!(in_flight > 0, "a wedge holds packets");

    // zero forward progress: doubling the budget frees nothing — the
    // same packets are still stuck, so this is a true deadlock, not a
    // slow drain
    let (ev2, _) = run(1, 40_000);
    let NocError::CycleBudgetExhausted {
        in_flight: in_flight2,
        ..
    } = ev2.expect_err("still wedged at twice the budget")
    else {
        panic!("expected CycleBudgetExhausted");
    };
    assert_eq!(
        in_flight, in_flight2,
        "no packet may advance in the extra budget window"
    );

    // two VCs: the dateline assignment breaks the cycle and everything
    // drains, byte-identically across engines
    let (ev, or) = run(2, 20_000);
    let (es, ed) = ev.expect("two VCs must complete");
    let (os, od) = or.expect("two VCs must complete in the oracle too");
    assert_eq!(ed, od, "delivery logs must be identical");
    assert_eq!(es.digest().unwrap(), os.digest().unwrap());
    assert_eq!(es.delivered, 16, "2 steps x 4 sources x 2 destinations");
    assert_eq!(es.per_vc.len(), 2);
    assert!(
        es.per_vc.iter().all(|v| v.forwarded > 0),
        "the wedge-breaking traffic must actually use both VCs: {:?}",
        es.per_vc
    );
}

#[test]
fn wedge_under_an_unbounded_budget_is_a_typed_error() {
    // both engines see the wedge (a cycle that forwards nothing, with
    // nothing in flight, no injection pending and no port busy: every
    // later cycle is the same) and report it at once, holding the
    // packets a finite budget reports
    let run = |engine: EngineKind, budget: u64| {
        NocSim::new(
            Box::new(Torus::grid(4, 1, 4)),
            ring_deadlock_cfg(1, budget),
            EnergyModel::default(),
        )
        .with_engine(engine)
        .run_with_duration(&ring_deadlock_flows(), 2)
        .expect_err("single-VC ring must wedge")
    };
    let err = run(EngineKind::EventDriven, u64::MAX);
    let NocError::CycleBudgetExhausted {
        budget: u64::MAX,
        in_flight,
    } = err
    else {
        panic!("expected CycleBudgetExhausted, got {err:?}");
    };
    assert!(in_flight > 0, "a wedge holds packets");
    assert_eq!(run(EngineKind::CycleOracle, u64::MAX), err);
    for engine in [EngineKind::EventDriven, EngineKind::CycleOracle] {
        assert_eq!(
            run(engine, 20_000),
            NocError::CycleBudgetExhausted {
                budget: 20_000,
                in_flight
            },
            "{engine:?}"
        );
    }
}

#[test]
fn pre_vc_digests_are_stable() {
    // golden digests recorded from the pre-VC engines (PR 4 HEAD): the
    // vc_count=1 configuration must reproduce them byte-for-byte, wire
    // shape included. A digest change here means single-VC behavior (or
    // the serialized statistics shape) drifted — exactly what the VC
    // refactor promised not to do. `torus16_depth2` and
    // `tree8_depth1_hotspot` replaced two rows of arbitration policies
    // since retired; their round-robin digests were recorded, under both
    // engines, on the last commit that had those policies.
    let multicast_storm = |crossbars: u32, steps: u32| -> Vec<SpikeFlow> {
        let mut flows = Vec::new();
        for step in 0..steps {
            for src in 0..crossbars {
                flows.push(SpikeFlow::multicast(
                    src * 31 + step,
                    src,
                    vec![
                        (src + 1) % crossbars,
                        (src + 3) % crossbars,
                        (src + 5) % crossbars,
                    ],
                    step,
                ));
            }
        }
        flows
    };
    let hotspot = |crossbars: u32, count: u32| -> Vec<SpikeFlow> {
        (0..count)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % (crossbars - 1)), 0, i % 3))
            .collect()
    };
    type GoldenCase = (
        &'static str,
        Box<dyn Topology>,
        NocConfig,
        Vec<SpikeFlow>,
        u32,
        u64,
    );
    let cases: Vec<GoldenCase> = vec![
        (
            "mesh8_default_multicast",
            Box::new(Mesh2D::for_crossbars(8)),
            NocConfig::default(),
            multicast_storm(8, 10),
            10,
            0x17fe_58cd_7cf4_7ad2,
        ),
        (
            "torus16_depth2",
            Box::new(Torus::for_crossbars(16)),
            NocConfig {
                buffer_depth: 2,
                ..NocConfig::default()
            },
            multicast_storm(16, 6),
            6,
            0x6464_aca8_5c8b_f8d7,
        ),
        (
            "tree8_depth1_hotspot",
            Box::new(NocTree::new(8, 2)),
            NocConfig {
                buffer_depth: 1,
                ..NocConfig::default()
            },
            hotspot(8, 60),
            3,
            0x8b0e_0f11_a6f9_db86,
        ),
        (
            "star8_hotspot",
            Box::new(Star::new(8)),
            NocConfig::default(),
            hotspot(8, 40),
            3,
            0x66d4_18a2_b61d_c39e,
        ),
        (
            "mesh16_flits3_delay2",
            Box::new(Mesh2D::for_crossbars(16)),
            NocConfig {
                buffer_depth: 3,
                flits_per_packet: 3,
                router_delay: 2,
                ..NocConfig::default()
            },
            multicast_storm(16, 4),
            4,
            0x0c14_bfd0_3288_a83c,
        ),
    ];
    for (name, topo, cfg, flows, duration, golden) in cases {
        assert_eq!(cfg.vc_count, 1, "{name}: goldens are single-VC");
        let topo: std::sync::Arc<dyn Topology> = std::sync::Arc::from(topo);
        let mut event = NocSim::shared(std::sync::Arc::clone(&topo), cfg, EnergyModel::default());
        let mut oracle =
            NocSim::shared(topo, cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let es = event.run_with_duration(&flows, duration).expect(name);
        let os = oracle.run_with_duration(&flows, duration).expect(name);
        assert_eq!(
            es.digest().unwrap(),
            golden,
            "{name}: event engine drifted from the pre-VC golden digest"
        );
        assert_eq!(
            os.digest().unwrap(),
            golden,
            "{name}: oracle drifted from the pre-VC golden digest"
        );
        assert!(
            es.per_vc.is_empty(),
            "{name}: single-VC stats must not carry per-VC counters"
        );
    }
}

#[test]
fn multi_vc_tree_and_hier_digests_are_frozen() {
    // golden stats digests and trace-byte hashes recorded at PR 12 HEAD,
    // the last commit where the event engine and the cycle oracle were two
    // independent implementations of the router model that agreed on them.
    // Since the engines share one `simulate` loop, router mechanics
    // (credit arithmetic, cursors, VC pick, multicast split, per-VC
    // counters, trace order) are no longer cross-checked by the
    // differential suite; these constants pin them on the multi-VC, tree
    // and hierarchical paths the single-VC goldens above do not reach.
    let storm = |crossbars: u32, steps: u32| -> Vec<SpikeFlow> {
        (0..steps)
            .flat_map(|step| {
                (0..crossbars).map(move |src| {
                    let dests = [1, 3, 5].map(|k| (src + k) % crossbars).to_vec();
                    SpikeFlow::multicast(src * 31 + step, src, dests, step)
                })
            })
            .collect()
    };
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    };
    let traced = |cfg: NocConfig| NocConfig { trace: true, ..cfg };
    type FrozenCase = (
        &'static str,
        Box<dyn Topology>,
        NocConfig,
        Vec<SpikeFlow>,
        u32,
        (u64, u64),
    );
    let cases: Vec<FrozenCase> = vec![
        (
            "torus16_vc2_depth1",
            Box::new(Torus::for_crossbars(16)),
            traced(NocConfig {
                buffer_depth: 1,
                vc_count: 2,
                ..NocConfig::default()
            }),
            storm(16, 6),
            6,
            (0x2943_eb66_b9f2_c085, 0xd6a8_fd19_062c_7025),
        ),
        (
            "torus16_vc4_depth2",
            Box::new(Torus::for_crossbars(16)),
            traced(NocConfig {
                buffer_depth: 2,
                vc_count: 4,
                ..NocConfig::default()
            }),
            storm(16, 6),
            6,
            (0x93db_cc57_c7d2_9107, 0xe348_6db1_c2b5_b7d5),
        ),
        (
            "mesh64_trees",
            Box::new(Mesh2D::for_crossbars(64)),
            traced(NocConfig {
                multicast_trees: true,
                ..NocConfig::default()
            }),
            storm(64, 4),
            4,
            (0x9e92_6326_a064_5996, 0xfafb_3055_cac3_16be),
        ),
        (
            "hier2x2_vc2",
            Box::new(HierTopology::mesh(2, 2, 4, 4, 64, 3, 2).expect("valid fabric")),
            traced(NocConfig {
                vc_count: 2,
                ..NocConfig::default()
            }),
            storm(64, 4),
            4,
            (0xc513_014e_137e_663b, 0xd59b_a919_2f42_dc2e),
        ),
    ];
    for (name, topo, cfg, flows, duration, (golden_stats, golden_trace)) in cases {
        let topo: std::sync::Arc<dyn Topology> = std::sync::Arc::from(topo);
        let mut event = NocSim::shared(std::sync::Arc::clone(&topo), cfg, EnergyModel::default());
        let mut oracle =
            NocSim::shared(topo, cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let es = event.run_with_duration(&flows, duration).expect(name);
        let os = oracle.run_with_duration(&flows, duration).expect(name);
        let et = fnv(&event.take_trace().expect("traced").to_bytes());
        let ot = fnv(&oracle.take_trace().expect("traced").to_bytes());
        let got = (es.digest().unwrap(), et);
        assert_eq!(
            got,
            (os.digest().unwrap(), ot),
            "{name}: engines disagree (stats digest, trace hash)"
        );
        assert_eq!(
            got,
            (golden_stats, golden_trace),
            "{name}: drifted from the frozen (stats digest, trace hash): got {got:#018x?}"
        );
    }
}

/// The fixed nets of the frozen delivery logs: 24 neurons, neuron `n` on
/// crossbar `7n mod 16` with five distinct remote destinations listed in a
/// scrambled (not ascending) order, every neuron firing at every one of 12
/// steps — 288 spikes of 24 distinct nets.
fn frozen_net_flows() -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for step in 0..12u32 {
        for n in 0..24u32 {
            let src = (n * 7) % 16;
            let dst_crossbars = [3u32, 0, 4, 1, 2]
                .map(|k| (src + 1 + (n + 3 * k) % 15) % 16)
                .to_vec();
            flows.push(SpikeFlow {
                source_neuron: n,
                src_crossbar: src,
                dst_crossbars: dst_crossbars.into(),
                send_step: step,
            });
        }
    }
    flows
}

#[test]
fn delivery_logs_are_frozen() {
    // recorded on the last commit whose packets carried their own
    // destination vectors (per-spike tree table, per-destination route
    // lookups in the router loop): FNV of the whole delivery log, the
    // stats digest and the trace hash, both engines, for the shapes no
    // golden above holds — one net fired many times, the same spikes as
    // single-destination flows, duplicate and self destinations, several
    // crossbars behind one router (delivery order inside one arrival),
    // and a wide split drained one branch at a time. Rows c and "d: … as
    // single-destination flows" replaced two rows of unicast clones, a
    // mode since retired; they were recorded, under both engines, on the
    // last commit that had it
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    };
    let log_bytes = |log: &[Delivery]| -> Vec<u8> {
        let mut bytes = Vec::with_capacity(log.len() * 32);
        for d in log {
            for word in [d.source_neuron, d.src_crossbar, d.dst_crossbar, d.send_step] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes.extend_from_slice(&d.inject_cycle.to_le_bytes());
            bytes.extend_from_slice(&d.deliver_cycle.to_le_bytes());
        }
        bytes
    };
    // dense enough to contend: steps 6 cycles apart, two-packet buffers
    let base = NocConfig {
        trace: true,
        cycles_per_step: 6,
        buffer_depth: 2,
        ..NocConfig::default()
    };
    let flow = |n: u32, src: u32, dsts: &[u32], step: u32| SpikeFlow {
        source_neuron: n,
        src_crossbar: src,
        dst_crossbars: dsts.into(),
        send_step: step,
    };
    // a duplicate destination, and one equal to the source crossbar
    let degenerate: Vec<SpikeFlow> = (0..8u32)
        .flat_map(|step| {
            [
                flow(1, 5, &[9, 2, 9, 5, 14], step),
                flow(2, 10, &[10, 3, 3, 0], step),
                flow(3, 0, &[15, 0, 15, 12, 1, 12], step),
            ]
        })
        .collect();
    // four routers, crossbars 3r..3r+3 on router r: destinations behind
    // one router listed out of order, some behind the source's own router
    let shared: Vec<SpikeFlow> = (0..6u32)
        .flat_map(|step| {
            [
                flow(0, 1, &[11, 3, 2, 9, 0, 5, 10, 4], step),
                flow(1, 10, &[0, 11, 2, 9, 1, 7, 6], step),
                flow(2, 4, &[5, 3, 8, 6, 7, 0, 2, 1, 11], step),
                flow(3, 7, &[8, 6, 10, 9, 11], step),
            ]
        })
        .collect();
    // every leaf but the source: a nine-way split at the hub, one-packet
    // buffers, four sources at once
    let hub_storm: Vec<SpikeFlow> = (0..5u32)
        .flat_map(|step| {
            (0..4u32).map(move |src| {
                let dsts: Vec<u32> = (0..10).rev().filter(|&d| d != src).collect();
                flow(src, src, &dsts, step)
            })
        })
        .collect();
    type FrozenLog = (
        &'static str,
        Box<dyn Topology>,
        NocConfig,
        Vec<SpikeFlow>,
        u32,
        (u64, u64, u64),
    );
    let cases: Vec<FrozenLog> = vec![
        (
            "a: mesh16, one net per neuron, per-destination routes",
            Box::new(Mesh2D::for_crossbars(16)),
            base,
            frozen_net_flows(),
            12,
            (
                0xfaaf_223d_daa0_dd69,
                0xd9e7_4a7c_479a_5566,
                0x8d08_d7d5_118b_11e5,
            ),
        ),
        (
            "b: torus16 at 2 VCs, trees",
            Box::new(Torus::for_crossbars(16)),
            NocConfig {
                multicast_trees: true,
                vc_count: 2,
                ..base
            },
            frozen_net_flows(),
            12,
            (
                0x6507_6e3b_500d_9c90,
                0x7fe5_e86d_de98_a1e0,
                0x70bd_e02d_b6db_edae,
            ),
        ),
        (
            "c: mesh16, one flow per destination",
            Box::new(Mesh2D::for_crossbars(16)),
            base,
            common::single_destination(&frozen_net_flows()),
            12,
            (
                0x37c8_c79a_912b_30c9,
                0x589e_bb49_a93e_e7e4,
                0xa0e5_6536_e5c8_a1af,
            ),
        ),
        (
            "d: mesh16, duplicate and self destinations",
            Box::new(Mesh2D::for_crossbars(16)),
            base,
            degenerate.clone(),
            8,
            (
                0xcd71_0053_5b15_ec25,
                0x096a_086c_39bd_6ffd,
                0x3b3e_95e6_6efb_b5cf,
            ),
        ),
        (
            "d: the same under trees",
            Box::new(Mesh2D::for_crossbars(16)),
            NocConfig {
                multicast_trees: true,
                ..base
            },
            degenerate.clone(),
            8,
            (
                0x9418_027d_c7b7_e465,
                0x21d2_a903_7236_173a,
                0xc14c_c402_9c80_3f35,
            ),
        ),
        (
            "d: the same as single-destination flows",
            Box::new(Mesh2D::for_crossbars(16)),
            base,
            common::single_destination(&degenerate),
            8,
            (
                0x0d38_56ce_2b5b_428b,
                0xf047_4035_11eb_19e8,
                0x849b_4ff6_de53_52cf,
            ),
        ),
        (
            "e: three crossbars per router on a line of four",
            Box::new(common::SharedRouterLine::new(4, 3)),
            base,
            shared,
            6,
            (
                0x823a_7fe5_9505_7adc,
                0xfd05_28bc_e72a_b579,
                0x3edd_04d5_23d8_4d57,
            ),
        ),
        (
            "f: star hub, fan-out 9, depth 1",
            Box::new(Star::new(10)),
            NocConfig {
                buffer_depth: 1,
                cycles_per_step: 4,
                ..base
            },
            hub_storm,
            5,
            (
                0x1f03_d1ed_7c09_caf5,
                0x4782_07c1_306d_9893,
                0x581c_4749_09d6_7e01,
            ),
        ),
    ];
    for (name, topo, cfg, flows, duration, golden) in cases {
        let topo: std::sync::Arc<dyn Topology> = std::sync::Arc::from(topo);
        let mut event = NocSim::shared(std::sync::Arc::clone(&topo), cfg, EnergyModel::default());
        let mut oracle =
            NocSim::shared(topo, cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let (es, ed) = event.run_logged(&flows, duration).expect(name);
        let (os, od) = oracle.run_logged(&flows, duration).expect(name);
        let expected: usize = flows.iter().map(|f| f.dst_crossbars.len()).sum();
        assert_eq!(
            ed.len(),
            expected,
            "{name}: one delivery per listed destination"
        );
        let et = fnv(&event.take_trace().expect("traced").to_bytes());
        let ot = fnv(&oracle.take_trace().expect("traced").to_bytes());
        let got = (fnv(&log_bytes(&ed)), es.digest().unwrap(), et);
        assert_eq!(
            got,
            (fnv(&log_bytes(&od)), os.digest().unwrap(), ot),
            "{name}: engines disagree (log hash, stats digest, trace hash)"
        );
        assert_eq!(
            got, golden,
            "{name}: drifted from the frozen (log hash, stats digest, trace hash): got {got:#018x?}"
        );
    }
}

/// A torus that counts its `multicast_route` calls.
struct CountingTorus(Torus, std::sync::atomic::AtomicUsize);

impl Topology for CountingTorus {
    fn num_routers(&self) -> usize {
        self.0.num_routers()
    }
    fn num_crossbars(&self) -> usize {
        self.0.num_crossbars()
    }
    fn endpoint(&self, k: u32) -> usize {
        self.0.endpoint(k)
    }
    fn neighbors(&self, r: usize) -> &[usize] {
        self.0.neighbors(r)
    }
    fn route_next(&self, r: usize, dst: usize) -> usize {
        self.0.route_next(r, dst)
    }
    fn hop_vc(&self, r: usize, dst: usize, vc_count: usize) -> usize {
        self.0.hop_vc(r, dst, vc_count)
    }
    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.0.multicast_route(src, dest_routers, vc_count)
    }
    fn hops(&self, from: usize, to: usize) -> u32 {
        self.0.hops(from, to)
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

#[test]
fn tree_routes_are_asked_once_per_net() {
    // case (b) of the frozen logs: 288 spikes of 24 nets
    let topo = std::sync::Arc::new(CountingTorus(
        Torus::for_crossbars(16),
        std::sync::atomic::AtomicUsize::new(0),
    ));
    let cfg = NocConfig {
        multicast_trees: true,
        vc_count: 2,
        cycles_per_step: 6,
        buffer_depth: 2,
        ..NocConfig::default()
    };
    let flows = frozen_net_flows();
    for (engine, calls) in [(EngineKind::EventDriven, 24), (EngineKind::CycleOracle, 48)] {
        let shared: std::sync::Arc<dyn Topology> = topo.clone();
        let mut sim = NocSim::shared(shared, cfg, EnergyModel::default()).with_engine(engine);
        let (stats, trace) = sim.run_traced(&flows, 12).expect("drains");
        assert_eq!(stats.counters.packets_injected, 288);
        assert_eq!((trace.nets, trace.plan_nodes > 24), (24, true));
        // a tree path is its net's: the plan shares no node
        assert_eq!(
            (trace.net_nodes, trace.shared_net_nodes),
            (trace.plan_nodes, 0)
        );
        assert_eq!(
            topo.1.load(std::sync::atomic::Ordering::Relaxed),
            calls,
            "one multicast_route call per net per run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    #[test]
    fn engines_agree_across_vc_configs(
        flows in arb_vc_flows(40),
        mesh in any::<bool>(),
        depth in 1usize..5,
        vc_idx in 0usize..3,
        split in any::<bool>(),
    ) {
        // the full new configuration grid: vc {1,2,4} x depth 1..4 on
        // mesh and torus. Shallow single-VC torus points can wedge —
        // then both engines must fail with the identical budget error,
        // which the small budget keeps cheap for the cycle-walking
        // oracle.
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: [1usize, 2, 4][vc_idx],
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let flows = if split { common::single_destination(&flows) } else { flows };
        assert_engines_agree_on(|| vc_topology(mesh), cfg, &flows, 6)?;
    }

    #[test]
    fn engines_agree_on_repeated_nets(
        flows in arb_repeated_nets(),
        fabric in 0usize..4,
        depth in 1usize..4,
        cycles_per_step in 1u64..9,
        (split, trees) in (any::<bool>(), any::<bool>()),
    ) {
        // steps a few cycles apart, so several spikes of one net are in
        // the fabric at once; the shared-router line is the one fabric
        // where an arrival delivers to several crossbars
        let topo = || -> Box<dyn Topology> {
            match fabric {
                0 | 1 => Box::new(common::SharedRouterLine::new(4, 3)),
                2 => Box::new(Torus::for_crossbars(16)),
                _ => Box::new(Mesh2D::for_crossbars(16)),
            }
        };
        let crossbars = topo().num_crossbars() as u32;
        let flows: Vec<SpikeFlow> = flows
            .into_iter()
            .map(|f| SpikeFlow {
                src_crossbar: f.src_crossbar % crossbars,
                dst_crossbars: f.dst_crossbars.iter().map(|d| d % crossbars).collect(),
                ..f
            })
            .collect();
        let flows = if split { common::single_destination(&flows) } else { flows };
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: if fabric == 0 { 1 } else { 2 },
            cycles_per_step,
            multicast_trees: trees,
            max_cycles: 60_000,
            trace: true,
            ..NocConfig::default()
        };
        assert_engines_agree_on(topo, cfg, &flows, 12)?;
        // nothing is lost or doubled — one delivery per listed
        // destination — and the event streams agree byte for byte
        let mut event = NocSim::new(topo(), cfg, EnergyModel::default());
        let mut oracle =
            NocSim::new(topo(), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let (stats, log) = event.run_logged(&flows, 12).expect("drains");
        oracle.run_with_duration(&flows, 12).expect("drains");
        let listed: usize = flows.iter().map(|f| f.dst_crossbars.len()).sum();
        prop_assert_eq!(log.len(), listed);
        prop_assert_eq!(stats.delivered as usize, listed);
        prop_assert_eq!(
            event.take_trace().expect("traced").to_bytes(),
            oracle.take_trace().expect("traced").to_bytes()
        );
    }

    #[test]
    fn vc_input_permutation_is_bit_invariant(
        flows in arb_vc_flows(40),
        shuffle_seed in any::<u64>(),
        depth in 1usize..3,
        vc_idx in 0usize..2,
    ) {
        // the canonical AER sort must fully determine the schedule under
        // VC contention too: shallow torus FIFOs with 2 or 4 VCs, flows
        // fed in any order, bit-identical stats and delivery logs
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: [2usize, 4][vc_idx],
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let permuted = shuffled(&flows, shuffle_seed);
        let mut a = NocSim::new(vc_topology(false), cfg, EnergyModel::default());
        let mut b = NocSim::new(vc_topology(false), cfg, EnergyModel::default());
        let ra = a.run_logged(&flows, 6);
        let rb = b.run_logged(&permuted, 6);
        match (ra, rb) {
            (Ok((sa, da)), Ok((sb, db))) => {
                prop_assert_eq!(da, db, "delivery logs depend on input order");
                prop_assert_eq!(sa.digest().unwrap(), sb.digest().unwrap(), "stats depend on input order");
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "errors depend on input order"),
            (ra, rb) => {
                return Err(format!(
                    "permutation changed the outcome kind: {ra:?} vs {rb:?}"
                ))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(16)))]

    #[test]
    fn event_engine_wakes_cover_oracle_progress(
        flows in arb_vc_flows(48),
        mesh in any::<bool>(),
        depth in 1usize..5,
        vc_idx in 0usize..3,
    ) {
        // liveness of the per-port wake scheduler under dense/backpressured
        // traffic: the event engine must attend (and forward at) every
        // cycle where the cycle-walking oracle makes forward progress —
        // a missed wake shows up here as a progress cycle the event
        // engine slept through
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: [1usize, 2, 4][vc_idx],
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default());
        let mut or = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let re = ev.run_traced(&flows, 6);
        let ro = or.run_traced(&flows, 6);
        match (re, ro) {
            (Ok((es, et)), Ok((os, ot))) => {
                let (ed, od) = (ev.run_logged(&flows, 6), or.run_logged(&flows, 6));
                prop_assert_eq!(&ed, &od, "delivery logs diverge");
                prop_assert_eq!(es.digest().unwrap(), os.digest().unwrap(), "digests diverge");
                prop_assert_eq!(
                    &et.progress_cycles, &ot.progress_cycles,
                    "the engines must forward at identical cycles"
                );
                let attended: std::collections::HashSet<u64> =
                    et.attended_cycles.iter().copied().collect();
                for c in &ot.progress_cycles {
                    prop_assert!(
                        attended.contains(c),
                        "oracle progressed at cycle {} but the event engine idled",
                        c
                    );
                }
            }
            (Err(ee), Err(oe)) => prop_assert_eq!(ee, oe, "errors diverge"),
            (re, ro) => return Err(format!("outcome kinds diverge: {re:?} vs {ro:?}")),
        }
    }

    #[test]
    fn per_port_wakes_beat_the_global_sweep_bound(
        flows in arb_flows(60),
        topo_idx in 0usize..6,
    ) {
        // the ready set pops a (router, output port) pair at most once per
        // attended cycle, so the per-port scheduler examines no more ports
        // than a global sweep over every pair of the fabric on the cycles
        // it attends
        let mut ev = NocSim::new(topology(topo_idx), NocConfig::default(), EnergyModel::default());
        let topo = ev.topology();
        let pairs: u64 = (0..topo.num_routers()).map(|r| topo.neighbors(r).len() as u64).sum();
        if let Ok((_, trace)) = ev.run_traced(&flows, 8) {
            prop_assert!(
                trace.sched.port_wakes <= trace.sched.wake_cycles * pairs,
                "per-port wakes {} exceed {} attended cycles x {} pairs",
                trace.sched.port_wakes,
                trace.sched.wake_cycles,
                pairs
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    #[test]
    fn event_engine_matches_cycle_oracle(
        flows in arb_flows(60),
        topo_idx in 0usize..6,
        depth in 1usize..6,
        flits in 1u32..4,
        router_delay in 0u32..3,
        split in any::<bool>(),
    ) {
        let cfg = NocConfig {
            buffer_depth: depth,
            flits_per_packet: flits,
            router_delay,
            ..NocConfig::default()
        };
        let flows = if split { common::single_destination(&flows) } else { flows };
        assert_engines_agree(topo_idx, cfg, &flows, 8)?;
    }

    #[test]
    fn engines_agree_under_backpressure(
        flows in arb_hotspot(120),
        topo_idx in 0usize..6,
    ) {
        // single-entry FIFOs: every hop stalls on credits, the regime
        // where the event engine's wake list is hardest to get right
        let cfg = NocConfig {
            buffer_depth: 1,
            ..NocConfig::default()
        };
        assert_engines_agree(topo_idx, cfg, &flows, 4)?;
    }

    #[test]
    fn engines_agree_on_cycle_budget_errors(
        flows in arb_hotspot(150),
        topo_idx in 0usize..6,
        budget in 1u64..300,
    ) {
        // tight budgets turn heavy hotspot traffic into
        // CycleBudgetExhausted; both engines must fail identically (same
        // budget, same in-flight count) or succeed identically
        let cfg = NocConfig {
            buffer_depth: 1,
            max_cycles: budget,
            ..NocConfig::default()
        };
        assert_engines_agree(topo_idx, cfg, &flows, 4)?;
    }

    #[test]
    fn input_permutation_does_not_change_results(
        flows in arb_flows(60),
        topo_idx in 0usize..6,
        shuffle_seed in any::<u64>(),
        congested in any::<bool>(),
    ) {
        // the canonical AER sort must fully determine the injection
        // schedule: feeding the flows in any order yields bit-identical
        // statistics and delivery logs, with and without credit stalls
        let cfg = NocConfig {
            buffer_depth: if congested { 1 } else { 4 },
            ..NocConfig::default()
        };
        let permuted = shuffled(&flows, shuffle_seed);
        let mut a = NocSim::new(topology(topo_idx), cfg, EnergyModel::default());
        let mut b = NocSim::new(topology(topo_idx), cfg, EnergyModel::default());
        let (sa, da) = a.run_logged(&flows, 8).expect("drains");
        let (sb, db) = b.run_logged(&permuted, 8).expect("drains");
        prop_assert_eq!(da, db, "delivery logs depend on input order");
        prop_assert_eq!(sa.digest().unwrap(), sb.digest().unwrap(), "stats depend on input order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(32)))]

    #[test]
    fn every_flow_is_delivered_exactly_once_per_destination(
        flows in arb_flows(60),
        split in any::<bool>(),
    ) {
        let flows = if split { common::single_destination(&flows) } else { flows };
        let expected: u64 = flows
            .iter()
            .map(|f| f.dst_crossbars.iter().filter(|&&d| d != f.src_crossbar).count() as u64
                + f.dst_crossbars.iter().filter(|&&d| d == f.src_crossbar).count() as u64)
            .sum();
        for topo in topologies() {
            let name = topo.name();
            let mut sim = NocSim::new(topo, NocConfig::default(), EnergyModel::default());
            let stats = sim.run(&flows).unwrap_or_else(|e| panic!("{name}: {e}"));
            prop_assert_eq!(stats.delivered, expected, "{} split={}", name, split);
        }
    }

    #[test]
    fn latency_at_least_hop_count(
        src in 0u32..CROSSBARS,
        dst in 0u32..CROSSBARS,
    ) {
        prop_assume!(src != dst);
        for topo in topologies() {
            let min_hops = topo.hops(topo.endpoint(src), topo.endpoint(dst)) as u64;
            let name = topo.name();
            let mut sim = NocSim::new(topo, NocConfig::default(), EnergyModel::default());
            let stats = sim
                .run(&[SpikeFlow::unicast(1, src, dst, 0)])
                .expect("single flow");
            prop_assert!(
                stats.max_latency_cycles >= min_hops,
                "{}: latency {} < hops {}",
                name,
                stats.max_latency_cycles,
                min_hops
            );
        }
    }

    #[test]
    fn tiny_buffers_never_lose_packets(
        flows in arb_flows(40),
        depth in 1usize..3,
    ) {
        let cfg = NocConfig { buffer_depth: depth, ..NocConfig::default() };
        let mut sim = NocSim::new(
            Box::new(Mesh2D::for_crossbars(CROSSBARS as usize)),
            cfg,
            EnergyModel::default(),
        );
        let expected: u64 = flows.iter().map(|f| f.dst_crossbars.len() as u64).sum();
        let stats = sim.run(&flows).expect("drains");
        prop_assert_eq!(stats.delivered, expected);
    }

    #[test]
    fn energy_counters_are_consistent(flows in arb_flows(40)) {
        let mut sim = NocSim::new(
            Box::new(Mesh2D::for_crossbars(CROSSBARS as usize)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        let stats = sim.run(&flows).expect("drains");
        let c = &stats.counters;
        prop_assert_eq!(c.deliveries, stats.delivered);
        // a packet traverses at least one router (its source) per delivery path
        if stats.delivered > 0 {
            prop_assert!(c.router_traversals >= stats.delivered);
        }
        // energy is non-negative and zero iff no traffic
        if c.packets_injected == 0 {
            prop_assert_eq!(stats.global_energy_pj, 0.0);
        } else {
            prop_assert!(stats.global_energy_pj > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(16)))]

    /// Trace determinism (PR 7): with `NocConfig::trace` on, the
    /// event-driven engine and the cycle-walking oracle must emit
    /// byte-identical event streams over the VC differential corpus,
    /// and the stream must not depend on the order flows were fed in
    /// (the canonical injection schedule erases feed order). This is
    /// the third byte-identity surface after stats digests and
    /// delivery logs.
    #[test]
    fn trace_streams_are_byte_identical_across_engines(
        flows in arb_vc_flows(40),
        mesh in any::<bool>(),
        depth in 1usize..5,
        vc_idx in 0usize..3,
        shuffle_seed in any::<u64>(),
    ) {
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: [1usize, 2, 4][vc_idx],
            max_cycles: 60_000,
            trace: true,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default());
        let mut or = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let re = ev.run_with_duration(&flows, 6);
        let ro = or.run_with_duration(&flows, 6);
        match (re, ro) {
            (Ok(_), Ok(_)) => {
                let et = ev.take_trace().expect("event engine recorded a trace");
                let ot = or.take_trace().expect("oracle recorded a trace");
                prop_assert_eq!(
                    et.to_bytes(), ot.to_bytes(),
                    "trace streams diverge between engines"
                );
                let mut evp = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default());
                evp.run_with_duration(&shuffled(&flows, shuffle_seed), 6)
                    .expect("permuted run matches the original outcome");
                let pt = evp.take_trace().expect("permuted run recorded a trace");
                prop_assert_eq!(
                    et.to_bytes(), pt.to_bytes(),
                    "trace depends on flow feed order"
                );
            }
            (Err(ee), Err(oe)) => prop_assert_eq!(ee, oe, "errors diverge"),
            (re, ro) => return Err(format!("outcome kinds diverge: {re:?} vs {ro:?}")),
        }
    }
}

// ---------------- Steiner multicast-tree campaign (PR 8) ----------------

/// Every topology the tree campaign exercises, including the 4×4
/// deadlock-capable shapes the VC corpus pins.
fn tree_topologies() -> Vec<Box<dyn Topology>> {
    let mut all = topologies();
    all.push(vc_topology(true));
    all.push(vc_topology(false));
    all
}

/// A single-destination multicast group must ride exactly the unicast
/// route: same next-hop sequence, same per-hop VC labels. This pins the
/// degeneracy contract in [`Topology::multicast_route`]'s docs — the
/// Steiner overrides on mesh and torus may only diverge from unicast
/// routing when a group genuinely shares hops between destinations.
#[test]
fn single_dest_trees_degenerate_to_the_unicast_route() {
    for topo in tree_topologies() {
        for vcs in [1usize, 2, 4] {
            let nr = topo.num_routers();
            for src in 0..nr {
                for dst in 0..nr {
                    let mut cur = src;
                    let mut expect = Vec::new();
                    while cur != dst {
                        let vc = if vcs <= 1 {
                            0
                        } else {
                            topo.hop_vc(cur, dst, vcs)
                        };
                        let next = topo.route_next(cur, dst);
                        expect.push((next, vc));
                        cur = next;
                    }
                    let paths = topo.multicast_route(src, &[dst], vcs);
                    assert_eq!(paths.len(), 1);
                    assert_eq!(
                        paths[0],
                        expect,
                        "{}: single-dest tree {src}→{dst} at {vcs} VCs leaves the unicast route",
                        topo.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    /// Structural invariants of every tree path, over random multicast
    /// groups on the deadlock-capable 4×4 mesh and torus: paths end at
    /// their destination, never revisit a router (simple paths), only
    /// traverse real links, and label every hop with an in-range VC.
    #[test]
    fn tree_paths_are_simple_link_walks(
        mesh in any::<bool>(),
        vc_idx in 0usize..3,
        src in 0usize..16,
        dests in proptest::collection::vec(0usize..16, 1..8),
    ) {
        let topo = vc_topology(mesh);
        let vcs = [1usize, 2, 4][vc_idx];
        let paths = topo.multicast_route(src, &dests, vcs);
        prop_assert_eq!(paths.len(), dests.len());
        for (path, &d) in paths.iter().zip(dests.iter()) {
            let mut cur = src;
            let mut seen = vec![src];
            for &(next, vc) in path {
                prop_assert!(
                    topo.neighbors(cur).contains(&next),
                    "{}: tree hop {cur}→{next} is not a link", topo.name()
                );
                prop_assert!(vc < vcs, "{}: VC {vc} out of range", topo.name());
                prop_assert!(
                    !seen.contains(&next),
                    "{}: tree path to {d} revisits router {next}", topo.name()
                );
                seen.push(next);
                cur = next;
            }
            prop_assert_eq!(cur, d, "{}: tree path ends off its destination", topo.name());
        }
    }

    /// The PR-5 deadlock-freedom invariant survives tree routing: the
    /// channel-dependency graph seeded with every unicast route *plus*
    /// every tree edge of random multicast groups stays acyclic on the
    /// wraparound-capable shapes (torus needs ≥ 2 VCs for its dateline
    /// scheme, exactly as for unicast routing).
    #[test]
    fn tree_routes_keep_channel_dependencies_acyclic(
        mesh in any::<bool>(),
        vc_idx in 0usize..2,
        groups in proptest::collection::vec(
            (0usize..16, proptest::collection::vec(0usize..16, 1..8)),
            1..12,
        ),
    ) {
        let topo = vc_topology(mesh);
        // torus at 1 VC is cyclic even for unicast; check the same VC
        // counts the unicast invariant holds at
        let vcs = if mesh { [1usize, 2][vc_idx] } else { [2usize, 4][vc_idx] };
        check_vc_tree_dependencies(topo.as_ref(), vcs, &groups)
            .map_err(|e| format!("{}: {e}", topo.name()))?;
    }

    /// The full differential surface under tree routing: stats bytes,
    /// digests, delivery logs, and structured traces all byte-identical
    /// between the event engine and the cycle oracle across the VC
    /// corpus with `multicast_trees` on.
    #[test]
    fn tree_routed_engines_are_byte_identical(
        flows in arb_vc_flows(40),
        mesh in any::<bool>(),
        depth in 1usize..5,
        vc_idx in 0usize..3,
    ) {
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: [1usize, 2, 4][vc_idx],
            multicast_trees: true,
            trace: true,
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default());
        let mut or = NocSim::new(vc_topology(mesh), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let re = ev.run_logged(&flows, 6);
        let ro = or.run_logged(&flows, 6);
        match (re, ro) {
            (Ok((es, ed)), Ok((os, od))) => {
                prop_assert_eq!(&ed, &od, "tree routing: delivery logs diverge");
                let ej = serde_json::to_string(&es).expect("stats serialize");
                let oj = serde_json::to_string(&os).expect("stats serialize");
                prop_assert_eq!(&ej, &oj, "tree routing: stats bytes diverge");
                prop_assert_eq!(
                    es.digest().unwrap(), os.digest().unwrap(),
                    "tree routing: digests diverge"
                );
                let et = ev.take_trace().expect("event engine recorded a trace");
                let ot = or.take_trace().expect("oracle recorded a trace");
                prop_assert_eq!(
                    et.to_bytes(), ot.to_bytes(),
                    "tree routing: trace streams diverge"
                );
            }
            (Err(ee), Err(oe)) => prop_assert_eq!(ee, oe, "tree routing: errors diverge"),
            (re, ro) => return Err(format!(
                "tree routing: outcome kinds diverge: {re:?} vs {ro:?}"
            )),
        }
    }

    /// Tree routing conserves traffic: every destination of every flow is
    /// still delivered exactly once, and a tree-routed run never delivers
    /// a different multiset of (flow, destination) pairs than the
    /// branch-split unicast-route run of the same workload.
    #[test]
    fn tree_routing_conserves_deliveries(
        flows in arb_vc_flows(30),
        mesh in any::<bool>(),
        vc_idx in 0usize..3,
    ) {
        let base = NocConfig {
            vc_count: [1usize, 2, 4][vc_idx],
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let tree_cfg = NocConfig { multicast_trees: true, ..base };
        let mut a = NocSim::new(vc_topology(mesh), base, EnergyModel::default());
        let mut b = NocSim::new(vc_topology(mesh), tree_cfg, EnergyModel::default());
        let ra = a.run_logged(&flows, 6);
        let rb = b.run_logged(&flows, 6);
        if let (Ok((_, da)), Ok((_, db))) = (ra, rb) {
            let key = |d: &Delivery| (d.source_neuron, d.src_crossbar, d.dst_crossbar, d.send_step);
            let mut ka: Vec<_> = da.iter().map(key).collect();
            let mut kb: Vec<_> = db.iter().map(key).collect();
            ka.sort_unstable();
            kb.sort_unstable();
            prop_assert_eq!(ka, kb, "tree routing changes the delivered multiset");
        }
    }
}

// ---------------- link forwards: what a run charges, before it runs ----------------

/// Raw flows over `crossbars` crossbars: destination lists as drawn —
/// empty, repeating a crossbar, or naming the source itself.
fn arb_raw_flows(crossbars: u32, max_flows: usize) -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..1000,
            0u32..crossbars,
            proptest::collection::vec(0u32..crossbars, 0..6),
            0u32..4,
        ),
        0..max_flows,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(
                |(source_neuron, src_crossbar, dst_crossbars, send_step)| SpikeFlow {
                    source_neuron,
                    src_crossbar,
                    dst_crossbars: dst_crossbars.into(),
                    send_step,
                },
            )
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    /// [`NocSim::link_forwards`] counts the forwarding plan's branches per
    /// injected packet; every run that drains charges exactly that many
    /// forwards of `flits_per_packet` flits, for single-destination flows,
    /// plain multicast and trees, on both engines and every fabric shape —
    /// the 2×2-chip fabric included, whose report weights are seam-priced.
    #[test]
    fn link_flits_are_the_predicted_link_forwards(
        flows in arb_raw_flows(16, 30),
        fabric in 0usize..6,
        depth in 1usize..4,
        mode in 0usize..3,
        flits in 1u32..4,
    ) {
        let (topo, vc_count): (Box<dyn Fn() -> Box<dyn Topology>>, usize) = match fabric {
            0 => (Box::new(|| Box::new(Mesh2D::for_crossbars(16))), 1),
            1 => (Box::new(|| Box::new(Torus::for_crossbars(16))), 2),
            2 => (Box::new(|| Box::new(NocTree::new(16, 2))), 1),
            3 => (Box::new(|| Box::new(Star::new(16))), 1),
            4 => (
                Box::new(|| Box::new(HierTopology::mesh(2, 2, 2, 2, 16, 3, 2).expect("valid"))),
                2,
            ),
            _ => (Box::new(|| Box::new(common::SharedRouterLine::new(4, 4))), 1),
        };
        let cfg = NocConfig {
            buffer_depth: depth,
            flits_per_packet: flits,
            vc_count,
            multicast_trees: mode == 2,
            max_cycles: 60_000,
            ..NocConfig::default()
        };
        let flows = if mode == 0 { common::single_destination(&flows) } else { flows };
        for engine in [EngineKind::EventDriven, EngineKind::CycleOracle] {
            let mut sim = NocSim::new(topo(), cfg, EnergyModel::default()).with_engine(engine);
            let forwards = sim.link_forwards(&flows);
            let name = format!("{} {engine:?} {cfg:?}", sim.topology().name());
            match sim.run_with_duration(&flows, 4) {
                Ok(stats) => prop_assert_eq!(
                    Ok(stats.counters.link_flits),
                    forwards.map(|f| u64::from(flits) * f),
                    "{}", &name
                ),
                Err(NocError::CycleBudgetExhausted { .. }) => {
                    prop_assert!(forwards.is_ok(), "{}: {:?}", &name, forwards)
                }
                Err(e) => prop_assert_eq!(Err(e), forwards, "{}", &name),
            }
        }
    }
}

/// Nearest-rank `(p50, p99)` of a sorted latency slice — the sort-based
/// form `NocStats::from_deliveries`' selections are held to.
fn percentiles_of_sorted(lat: &[u64]) -> (u64, u64) {
    if lat.is_empty() {
        return (0, 0);
    }
    let rank = |p: f64| {
        let idx = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1;
        lat[idx]
    };
    (rank(0.50), rank(0.99))
}

/// [`disorder_fraction`] by one sort of the whole log into
/// `(destination, step, inject, neuron, position)` order: each adjacent
/// pair at one destination, a step apart and delivered inverted, counts.
fn disorder_by_sorting(deliveries: &[Delivery]) -> f64 {
    if deliveries.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<(u32, u32, u64, u32, usize)> = deliveries
        .iter()
        .enumerate()
        .map(|(i, d)| {
            (
                d.dst_crossbar,
                d.send_step,
                d.inject_cycle,
                d.source_neuron,
                i,
            )
        })
        .collect();
    sorted.sort_unstable();
    let deliver = |k: &(u32, u32, u64, u32, usize)| deliveries[k.4].deliver_cycle;
    let inversions = sorted
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1 && deliver(&w[0]) > deliver(&w[1]))
        .count();
    inversions as f64 / deliveries.len() as f64
}

/// [`isi_distortion`] by one sort of the whole log into
/// `(neuron, destination, inject, deliver)` order, streams being its
/// maximal runs of one `(neuron, destination)`.
fn isi_by_sorting(deliveries: &[Delivery]) -> (f64, u64) {
    let mut sorted: Vec<(u32, u32, u64, u64)> = deliveries
        .iter()
        .map(|d| {
            (
                d.source_neuron,
                d.dst_crossbar,
                d.inject_cycle,
                d.deliver_cycle,
            )
        })
        .collect();
    sorted.sort_unstable();
    let (mut sum, mut count, mut max) = (0u64, 0u64, 0u64);
    for stream in sorted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if stream.len() < 2 {
            continue;
        }
        let worst = stream
            .windows(2)
            .map(|w| (w[1].2 - w[0].2).abs_diff(w[1].3.abs_diff(w[0].3)))
            .max()
            .unwrap_or(0);
        sum += worst;
        count += 1;
        max = max.max(worst);
    }
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };
    (mean, max)
}

/// `stats` with every field the delivery log's order decides recomputed
/// by the sort-based forms above.
fn recomputed_by_sorting(stats: &NocStats, deliveries: &[Delivery]) -> NocStats {
    let mut lat: Vec<u64> = deliveries.iter().map(Delivery::latency).collect();
    lat.sort_unstable();
    let (p50, p99) = percentiles_of_sorted(&lat);
    let (avg_isi, max_isi) = isi_by_sorting(deliveries);
    NocStats {
        p50_latency_cycles: p50,
        p99_latency_cycles: p99,
        max_latency_cycles: lat.last().copied().unwrap_or(0),
        disorder_fraction: disorder_by_sorting(deliveries),
        avg_isi_distortion_cycles: avg_isi,
        max_isi_distortion_cycles: max_isi,
        ..stats.clone()
    }
}

/// A random delivery log: ids and steps drawn from a pool that holds
/// `u32::MAX`, inject cycles close enough to tie, and deliveries late by
/// up to `spread` cycles — in log order as drawn (streams out of inject
/// order, cross-step inversions at one destination) or, like an engine's
/// log, by deliver cycle.
fn arb_delivery_log() -> impl Strategy<Value = Vec<Delivery>> {
    const POOL: [u32; 5] = [0, 1, 2, u32::MAX - 1, u32::MAX];
    (
        proptest::collection::vec(
            (0usize..5, 0usize..5, 0usize..5, 0u64..40, 0u64..1000),
            0..60,
        ),
        1u64..200,
        any::<bool>(),
    )
        .prop_map(|(raw, spread, by_delivery)| {
            let mut log: Vec<Delivery> = raw
                .into_iter()
                .map(|(neuron, dst, step, inject, late)| {
                    Delivery::new(
                        POOL[neuron],
                        0,
                        POOL[dst],
                        POOL[step],
                        inject,
                        inject + late % spread,
                    )
                })
                .collect();
            if by_delivery {
                log.sort_by_key(|d| d.deliver_cycle);
            }
            log
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    /// `NocStats::from_deliveries` (selection for the percentiles, one
    /// bucketing by destination for disorder and ISI distortion) is byte
    /// for byte the statistics the whole-log sorts computed.
    #[test]
    fn statistics_are_the_sort_based_statistics(log in arb_delivery_log()) {
        let stats = NocStats::from_deliveries(&log, Counters::default(), &EnergyModel::default(), 4, 16);
        prop_assert_eq!(
            stats.to_json().unwrap(),
            recomputed_by_sorting(&stats, &log).to_json().unwrap()
        );
        prop_assert_eq!(disorder_fraction(&log).to_bits(), disorder_by_sorting(&log).to_bits());
        let (mean, max) = isi_distortion(&log);
        prop_assert_eq!((mean.to_bits(), max), {
            let (m, x) = isi_by_sorting(&log);
            (m.to_bits(), x)
        });
    }
}

/// The fabrics the statistics fold is held to its log on: mesh, torus,
/// tree, star, point-to-point and a 2 × 2-chip hierarchy.
fn fold_fabric(idx: usize) -> Box<dyn Topology> {
    let c = CROSSBARS as usize;
    match idx % 6 {
        0 => Box::new(Mesh2D::for_crossbars(c)),
        1 => Box::new(Torus::for_crossbars(c)),
        2 => Box::new(NocTree::new(c, 2)),
        3 => Box::new(Star::new(c)),
        4 => Box::new(PointToPoint::new(c)),
        _ => Box::new(HierTopology::for_crossbars(c, 2, 2, 3, 2).expect("valid")),
    }
}

/// Hand-written traffic whose streams ride several nets: four neurons,
/// each sending from any crossbar to any destination set, so one neuron
/// sends from several crossbars and under several destination sets.
fn arb_split_flows() -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..4,         // source neuron
            0u32..CROSSBARS, // src crossbar
            proptest::collection::vec(0u32..CROSSBARS, 1..4),
            0u32..4, // send step
        ),
        1..48,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(neuron, src, dsts, step)| SpikeFlow::multicast(neuron, src, dsts, step))
            .collect()
    })
}

/// Whether some `(source neuron, destination)` stream of `log` has a
/// delivery that follows one of a larger `(inject, deliver)`.
fn has_an_out_of_order_stream(log: &[Delivery]) -> bool {
    let mut last = std::collections::HashMap::new();
    log.iter().any(|d| {
        let now = (d.inject_cycle, d.deliver_cycle);
        last.insert((d.source_neuron, d.dst_crossbar), now)
            .is_some_and(|before| now < before)
    })
}

/// The statistics a run folds as it delivers are byte for byte
/// `NocStats::from_deliveries` over the log of the same run, on every
/// fabric, under both engines, at one and two VCs, with trees on and
/// off — and the corpus does carry streams that arrive out of inject
/// order, whose pairs the fold keeps and sorts.
#[test]
fn the_statistics_fold_is_the_log_statistics_on_every_fabric() {
    static OUT_OF_ORDER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(common::cases(32)))]
        fn fold_is_the_log_statistics(
            flows in arb_split_flows(),
            fabric in 0usize..6,
            vc_count in 1usize..3,
            trees in any::<bool>(),
            depth in 1usize..4,
        ) {
            let cfg = NocConfig {
                vc_count,
                multicast_trees: trees,
                buffer_depth: depth,
                cycles_per_step: 8,
                max_cycles: 60_000,
                ..NocConfig::default()
            };
            for engine in [EngineKind::EventDriven, EngineKind::CycleOracle] {
                let sim = || NocSim::new(fold_fabric(fabric), cfg, EnergyModel::default())
                    .with_engine(engine);
                let name = format!("{} {engine:?} {cfg:?}", fold_fabric(fabric).name());
                match (sim().run_with_duration(&flows, 4), sim().run_logged(&flows, 4)) {
                    (Ok(stats), Ok((logged, log))) => {
                        prop_assert_eq!(&stats, &logged, "{}", &name);
                        let from_log = NocStats::from_deliveries(
                            &log,
                            stats.counters,
                            &EnergyModel::default(),
                            4,
                            cfg.cycles_per_step,
                        )
                        .with_per_vc(stats.per_vc.clone());
                        prop_assert_eq!(
                            stats.to_json().unwrap(),
                            from_log.to_json().unwrap(),
                            "{}", &name
                        );
                        if has_an_out_of_order_stream(&log) {
                            OUT_OF_ORDER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", &name),
                    (a, b) => return Err(format!("{name}: {a:?} vs {b:?}")),
                }
            }
        }
    }
    fold_is_the_log_statistics();
    let runs = OUT_OF_ORDER.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        runs > 0,
        "no run delivered a stream out of inject order: the kept pairs went untested"
    );
}

#[test]
fn statistics_of_edge_logs_are_the_sort_based_statistics() {
    let d = Delivery::new;
    let max = u32::MAX;
    let logs = [
        vec![],
        // one spike per stream
        vec![d(max, 0, max, max, 5, 9), d(0, 0, max, 0, 5, 5)],
        // a stream delivered out of inject order, and a later step
        // overtaking an earlier one at the same destination
        vec![
            d(3, 0, 1, 0, 20, 30),
            d(3, 0, 1, 0, 10, 31),
            d(3, 0, 1, max, 12, 15),
            d(3, 0, 1, 0, 10, 29),
        ],
        // equal inject cycles, one step split over two runs of the log
        vec![
            d(1, 0, 2, 1, 7, 8),
            d(2, 0, 2, 2, 7, 7),
            d(1, 0, 2, 1, 7, 9),
            d(1, 0, 2, 2, 7, 7),
        ],
    ];
    for log in logs {
        let stats =
            NocStats::from_deliveries(&log, Counters::default(), &EnergyModel::default(), 4, 16);
        assert_eq!(
            stats.to_json().unwrap(),
            recomputed_by_sorting(&stats, &log).to_json().unwrap(),
            "{log:?}"
        );
    }
}
