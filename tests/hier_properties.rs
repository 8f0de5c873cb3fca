//! Property tests over the hierarchical multi-chip fabric
//! ([`HierTopology`]).
//!
//! Four layers:
//!
//! * **Degenerate-hierarchy byte identity** — a 1-chip fabric must be
//!   indistinguishable from the flat topology it nests: byte-identical
//!   serialized statistics, digests, delivery logs, and structured trace
//!   bytes on the differential corpus, for both mesh and torus intra
//!   fabrics, across VC counts / FIFO depths, for multicast and
//!   single-destination flows.
//! * **Multi-chip routing soundness** — `check_routes` +
//!   `check_vc_channel_dependencies` + `check_vc_tree_dependencies`
//!   across chip grids, intra fabrics, and VC counts: every route
//!   converges hop by hop, and the VC channel-dependency graph stays
//!   acyclic across chip-boundary links (multi-chip routing never uses
//!   torus wrap links, which is what makes this provable).
//! * **Weighted distances** — the fabric's nested [`DistanceLut`] is
//!   symmetric, zero on the diagonal, and dominates the unweighted hop
//!   count (chip seams priced `link_latency × link_width`).
//! * **Multi-chip differential** — the event engine and the cycle
//!   oracle must byte-agree on hierarchical fabrics, exactly like the
//!   flat corpus in `tests/noc_properties.rs`.
//!
//! `NEUROMAP_PROPTEST_CASES` overrides the per-test case count (CI runs
//! a 256-case pass over this suite; see `scripts/verify.sh`).

use neuromap::hw::energy::EnergyModel;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::{EngineKind, NocSim};
use neuromap::noc::topology::{
    check_routes, check_vc_channel_dependencies, check_vc_tree_dependencies, HierTopology, Mesh2D,
    Topology, Torus,
};
use neuromap::noc::traffic::SpikeFlow;
use proptest::prelude::*;
use proptest::TestCaseResult;

mod common;

/// Crossbar count of the 1-chip corpus (a 4 × 4 intra grid).
const CROSSBARS: u32 = 16;

fn arb_flows(max_flows: usize) -> impl Strategy<Value = Vec<SpikeFlow>> {
    common::arb_flows(CROSSBARS, 5, 4, max_flows)
}

/// The flat topology and its 1-chip hierarchical twin (same intra grid;
/// the boundary-link parameters are irrelevant at one chip but kept
/// non-trivial so delegation, not luck, produces the identity).
fn one_chip_pair(mesh: bool) -> (Box<dyn Topology>, Box<dyn Topology>) {
    if mesh {
        (
            Box::new(Mesh2D::grid(4, 4, CROSSBARS as usize)),
            Box::new(HierTopology::mesh(1, 1, 4, 4, CROSSBARS as usize, 3, 2).expect("valid")),
        )
    } else {
        (
            Box::new(Torus::grid(4, 4, CROSSBARS as usize)),
            Box::new(HierTopology::torus(1, 1, 4, 4, CROSSBARS as usize, 3, 2).expect("valid")),
        )
    }
}

/// Runs the event engine on two topologies and asserts byte-identical
/// outcomes: delivery logs, serialized stats, digests — and, in a
/// second traced run, the structured trace bytes.
fn assert_topologies_identical(
    flat: Box<dyn Topology>,
    hier: Box<dyn Topology>,
    cfg: NocConfig,
    flows: &[SpikeFlow],
    duration: u32,
) -> TestCaseResult {
    let name = format!("{} vs {} vc={}", flat.name(), hier.name(), cfg.vc_count);
    let mut on_flat = NocSim::new(flat, cfg, EnergyModel::default());
    let mut on_hier = NocSim::new(hier, cfg, EnergyModel::default());
    let fr = on_flat.run_with_duration(flows, duration);
    let hr = on_hier.run_with_duration(flows, duration);
    match (fr, hr) {
        (Ok((fs, fd)), Ok((hs, hd))) => {
            prop_assert_eq!(&fd, &hd, "{}: delivery logs diverge", &name);
            let fj = serde_json::to_string(&fs).expect("stats serialize");
            let hj = serde_json::to_string(&hs).expect("stats serialize");
            prop_assert_eq!(&fj, &hj, "{}: stats bytes diverge", &name);
            prop_assert_eq!(
                fs.digest().unwrap(),
                hs.digest().unwrap(),
                "{}: digests diverge",
                &name
            );
        }
        (fr, hr) => {
            prop_assert_eq!(
                format!("{fr:?}"),
                format!("{hr:?}"),
                "{}: outcomes diverge",
                &name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    /// A 1-chip hierarchy is the flat topology, byte for byte: same
    /// delivery logs, same serialized stats, same digests.
    #[test]
    fn one_chip_fabric_is_byte_identical_to_flat(
        flows in arb_flows(40),
        mesh in any::<bool>(),
        vc in 1usize..3,
        depth in 1usize..4,
        split in any::<bool>(),
    ) {
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: vc,
            ..NocConfig::default()
        };
        let flows = if split { common::single_destination(&flows) } else { flows };
        let (flat, hier) = one_chip_pair(mesh);
        assert_topologies_identical(flat, hier, cfg, &flows, 8)?;
    }

    /// …and with tracing on, the structured event trace is also byte
    /// identical (the trace records router/port/VC of every event, so
    /// this pins the delegation down to per-hop detail).
    #[test]
    fn one_chip_fabric_trace_bytes_match_flat(
        flows in arb_flows(24),
        mesh in any::<bool>(),
        vc in 1usize..3,
    ) {
        let cfg = NocConfig {
            vc_count: vc,
            trace: true,
            ..NocConfig::default()
        };
        let (flat, hier) = one_chip_pair(mesh);
        let mut on_flat = NocSim::new(flat, cfg, EnergyModel::default());
        let mut on_hier = NocSim::new(hier, cfg, EnergyModel::default());
        let fr = on_flat.run_with_duration(&flows, 8);
        let hr = on_hier.run_with_duration(&flows, 8);
        prop_assert_eq!(format!("{:?}", fr.is_ok()), format!("{:?}", hr.is_ok()));
        if fr.is_ok() {
            let ft = on_flat.take_trace().expect("tracing was on");
            let ht = on_hier.take_trace().expect("tracing was on");
            prop_assert_eq!(
                ft.to_bytes(),
                ht.to_bytes(),
                "trace bytes diverge between flat and 1-chip fabrics"
            );
        }
    }

    /// Multi-chip routes converge and the VC channel-dependency graph is
    /// acyclic at every VC count — including torus intra fabrics, whose
    /// wrap links multi-chip routing must never touch.
    #[test]
    fn multi_chip_routes_converge_and_vcs_stay_acyclic(
        chip_cols in 1usize..4,
        chip_rows in 1usize..3,
        intra_cols in 2usize..4,
        intra_rows in 2usize..4,
        torus in any::<bool>(),
        latency in 1u32..5,
        width in 1u32..3,
        vc in 1usize..4,
        raw_groups in proptest::collection::vec(
            (0u32..64, proptest::collection::vec(0u32..64, 1..5)),
            0..6,
        ),
    ) {
        prop_assume!(chip_cols * chip_rows > 1);
        let crossbars = chip_cols * chip_rows * intra_cols * intra_rows;
        let topo = if torus {
            HierTopology::torus(chip_cols, chip_rows, intra_cols, intra_rows, crossbars, latency, width)
        } else {
            HierTopology::mesh(chip_cols, chip_rows, intra_cols, intra_rows, crossbars, latency, width)
        }.expect("valid fabric");
        let nr = topo.num_routers();
        prop_assert!(check_routes(&topo).is_ok(), "{:?}", check_routes(&topo));
        let deps = check_vc_channel_dependencies(&topo, vc);
        prop_assert!(deps.is_ok(), "{:?}", deps);
        let groups: Vec<(usize, Vec<usize>)> = raw_groups
            .into_iter()
            .map(|(src, dests)| (
                src as usize % nr,
                dests.into_iter().map(|d| d as usize % nr).collect(),
            ))
            .collect();
        let tree_deps = check_vc_tree_dependencies(&topo, vc, &groups);
        prop_assert!(tree_deps.is_ok(), "{:?}", tree_deps);
    }

    /// The nested distance table is symmetric, zero on the diagonal, and
    /// dominates the unweighted hop count (seams priced latency × width,
    /// both ≥ 1).
    #[test]
    fn weighted_distances_are_sound(
        chip_cols in 1usize..4,
        chip_rows in 1usize..3,
        intra_side in 2usize..4,
        torus in any::<bool>(),
        latency in 1u32..5,
        width in 1u32..3,
    ) {
        let crossbars = chip_cols * chip_rows * intra_side * intra_side;
        let topo = if torus {
            HierTopology::torus(chip_cols, chip_rows, intra_side, intra_side, crossbars, latency, width)
        } else {
            HierTopology::mesh(chip_cols, chip_rows, intra_side, intra_side, crossbars, latency, width)
        }.expect("valid fabric");
        let lut = topo.distance_lut();
        for a in 0..crossbars as u32 {
            for b in 0..crossbars as u32 {
                let d = lut.hops(a, b);
                prop_assert_eq!(d, lut.hops(b, a), "asymmetric at ({}, {})", a, b);
                if a == b {
                    prop_assert_eq!(d, 0);
                } else {
                    prop_assert!(d > 0);
                }
                let raw = topo.hops(topo.endpoint(a), topo.endpoint(b));
                prop_assert!(
                    d >= raw,
                    "weighted {} < raw {} at ({}, {})",
                    d, raw, a, b
                );
            }
        }
    }

    /// The event engine and the cycle oracle byte-agree on multi-chip
    /// fabrics, mirroring the flat differential corpus.
    #[test]
    fn engines_agree_on_multi_chip_fabrics(
        flows in arb_flows(32),
        torus in any::<bool>(),
        vc in 1usize..3,
        depth in 1usize..4,
        latency in 1u32..4,
    ) {
        // 2 × 1 chips of a 2 × 4 grid: 16 crossbars, one seam column
        let crossbars = CROSSBARS as usize;
        let topo = || -> Box<dyn Topology> {
            Box::new(if torus {
                HierTopology::torus(2, 1, 2, 4, crossbars, latency, 2).expect("valid")
            } else {
                HierTopology::mesh(2, 1, 2, 4, crossbars, latency, 2).expect("valid")
            })
        };
        let cfg = NocConfig {
            buffer_depth: depth,
            vc_count: vc,
            ..NocConfig::default()
        };
        let mut event = NocSim::new(topo(), cfg, EnergyModel::default());
        let mut oracle = NocSim::new(topo(), cfg, EnergyModel::default()).with_engine(EngineKind::CycleOracle);
        let name = format!("{} vc={}", event.topology().name(), vc);
        let ev = event.run_with_duration(&flows, 8);
        let or = oracle.run_with_duration(&flows, 8);
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
            }
            (ev, or) => {
                prop_assert_eq!(
                    format!("{ev:?}"),
                    format!("{or:?}"),
                    "{}: outcomes diverge",
                    &name
                );
            }
        }
    }
}

/// Deterministic end-to-end check: the mapping pipeline on a 1-chip
/// `Hier` architecture reports byte-identically to the flat mesh — the
/// pipeline-level face of the degenerate-hierarchy identity. (The
/// pipeline derives a near-square per-chip mesh, which at one chip is
/// exactly the flat `Mesh` topology.)
#[test]
fn one_chip_hier_pipeline_matches_flat_mesh() {
    use neuromap::core::pipeline::{MappingPipeline, PipelineConfig};
    use neuromap::hw::arch::{Architecture, InterconnectKind};
    use neuromap::hw::mapping::Mapping;

    let flows: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i * 5 + 3) % 16)).collect();
    let synapses: Vec<(u32, u32)> = flows;
    let counts: Vec<u32> = (0..16).map(|i| (i % 7) + 1).collect();
    let graph = neuromap::core::SpikeGraph::from_parts(16, synapses, counts).expect("valid graph");

    let hier = Architecture::custom(
        16,
        1,
        InterconnectKind::Hier {
            chip_cols: 1,
            chip_rows: 1,
            link_latency: 4,
            link_width: 2,
        },
    )
    .expect("valid arch");
    let flat = Architecture::custom(16, 1, InterconnectKind::Mesh).expect("valid arch");

    let assign: Vec<u32> = (0..16).collect();
    let m = Mapping::from_assignment(assign, 16).expect("valid mapping");
    let r_hier = MappingPipeline::new(PipelineConfig::for_arch(hier))
        .evaluate(&graph, m.clone(), "manual", "identity")
        .expect("pipeline runs")
        .report;
    let r_flat = MappingPipeline::new(PipelineConfig::for_arch(flat))
        .evaluate(&graph, m, "manual", "identity")
        .expect("pipeline runs")
        .report;
    // identical numbers and identical serialized bytes
    assert_eq!(r_hier.hop_weighted_packets, r_flat.hop_weighted_packets);
    assert_eq!(r_hier.noc.digest().unwrap(), r_flat.noc.digest().unwrap());
    assert_eq!(
        serde_json::to_string(&r_hier.noc).expect("stats serialize"),
        serde_json::to_string(&r_flat.noc).expect("stats serialize"),
    );
}
