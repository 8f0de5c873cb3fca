//! Interconnect-parameter exploration: the Noxim configurables the paper
//! quotes — buffer size, packet size (flits), arbitration ("selection
//! strategy") and clock ratio — swept for a fixed application and mapping.
//!
//! Complements [`crate::explore`] (which sweeps the *architecture*): here
//! the mapping stays fixed and the interconnect's micro-parameters move,
//! answering the designer's second-order questions (how deep do the router
//! FIFOs need to be? does the arbitration policy matter for this traffic?).
//!
//! Sweeps run on whichever engine [`PipelineConfig::engine`] selects; the
//! event-driven default makes wide sweeps cheap, and the tests pin every
//! sweep point to the cycle-driven oracle's output.
//!
//! The architecture is fixed across a sweep, so every sweep builds **one**
//! [`MappingPipeline`] — router graph and hop-distance table derived once
//! — and walks the parameter grid through
//! [`MappingPipeline::with_noc`], instead of rebuilding the
//! `Box<dyn Topology>` from scratch at every point as the pre-staged
//! pipeline did.

use crate::error::CoreError;
use crate::graph::SpikeGraph;
use crate::pipeline::{MappingPipeline, PipelineConfig};
use neuromap_hw::mapping::Mapping;
use neuromap_noc::config::NocConfig;
use neuromap_noc::router::Arbitration;
use neuromap_noc::stats::NocStats;
use neuromap_noc::trace::SpotterReport;
use serde::{Deserialize, Serialize};

/// Congested lanes the spotter reports per traced sweep point.
const SPOTTER_TOP_LANES: usize = 8;
/// Dominant flows the spotter names per congested lane.
const SPOTTER_TOP_FLOWS: usize = 3;

/// Shared sweep driver: one pipeline, one `NocConfig` edit per point.
fn sweep_points<T>(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
    settings: impl IntoIterator<Item = T>,
    label: impl Fn(&T) -> String,
    apply: impl Fn(&T, &mut NocConfig),
) -> Result<Vec<NocSweepPoint>, CoreError> {
    let pipeline = MappingPipeline::new(base.clone());
    sweep_points_with(&pipeline, graph, mapping, settings, label, apply)
}

/// [`sweep_points`] over a caller-owned pipeline: every point goes
/// through [`MappingPipeline::with_noc`], which shares the pipeline's
/// `Arc<dyn Topology>` and distance table instead of rebuilding them.
fn sweep_points_with<T>(
    pipeline: &MappingPipeline,
    graph: &SpikeGraph,
    mapping: &Mapping,
    settings: impl IntoIterator<Item = T>,
    label: impl Fn(&T) -> String,
    apply: impl Fn(&T, &mut NocConfig),
) -> Result<Vec<NocSweepPoint>, CoreError> {
    settings
        .into_iter()
        .map(|setting| {
            let mut noc = pipeline.config().noc;
            apply(&setting, &mut noc);
            let evaluation =
                pipeline
                    .with_noc(noc)
                    .evaluate(graph, mapping.clone(), "sweep", "identity")?;
            Ok(NocSweepPoint {
                setting: label(&setting),
                stats: evaluation.report.noc,
                hotspots: evaluation
                    .trace
                    .map(|t| t.spot_congestion(SPOTTER_TOP_LANES, SPOTTER_TOP_FLOWS)),
            })
        })
        .collect()
}

/// Per-point interconnect overrides for a mixed sweep: any field left
/// `None` inherits the base configuration's value, so one sweep can walk
/// e.g. `(depth 64, 1 VC)` → `(depth 2, 2 VCs)` without cloning whole
/// configs per point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocOverride {
    /// Overrides [`NocConfig::buffer_depth`] for this point.
    pub buffer_depth: Option<usize>,
    /// Overrides [`NocConfig::vc_count`] for this point.
    pub vc_count: Option<usize>,
}

impl NocOverride {
    fn apply(&self, noc: &mut NocConfig) {
        if let Some(d) = self.buffer_depth {
            noc.buffer_depth = d;
        }
        if let Some(v) = self.vc_count {
            noc.vc_count = v;
        }
    }
}

/// Sweeps heterogeneous `(buffer_depth, vc_count)` points — unlike the
/// single-knob sweeps, every point may override both knobs independently
/// (the shallow-FIFO / virtual-channel trade-off study needs exactly
/// this: deep buffers without VCs against shallow buffers with them).
///
/// # Errors
///
/// Propagates pipeline errors for any point (including
/// [`CoreError::Noc`] wrapping a cycle-budget wedge for
/// deadlock-capable single-VC torus points).
pub fn mixed_sweep(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
    points: &[NocOverride],
) -> Result<Vec<NocSweepPoint>, CoreError> {
    let pipeline = MappingPipeline::new(base.clone());
    mixed_sweep_with(&pipeline, graph, mapping, points)
}

/// [`mixed_sweep`] over a caller-owned pipeline, reusing its shared
/// topology and distance table across every point.
pub fn mixed_sweep_with(
    pipeline: &MappingPipeline,
    graph: &SpikeGraph,
    mapping: &Mapping,
    points: &[NocOverride],
) -> Result<Vec<NocSweepPoint>, CoreError> {
    sweep_points_with(
        pipeline,
        graph,
        mapping,
        points.iter().copied(),
        |p| {
            let base = pipeline.config().noc;
            format!(
                "buffer_depth={},vc_count={}",
                p.buffer_depth.unwrap_or(base.buffer_depth),
                p.vc_count.unwrap_or(base.vc_count)
            )
        },
        |p, noc| p.apply(noc),
    )
}

/// One point of an interconnect-parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocSweepPoint {
    /// Human-readable parameter setting ("buffer_depth=2", ...).
    pub setting: String,
    /// Full interconnect statistics at this setting.
    pub stats: NocStats,
    /// Congestion-spotter report over the point's event trace —
    /// present only when [`NocConfig::trace`] was on for the point.
    /// Skipped in serialized form when absent, so sweep outputs written
    /// before the trace layer (and all untraced sweeps) are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub hotspots: Option<SpotterReport>,
}

/// Sweeps the router input-buffer depth.
///
/// # Errors
///
/// Propagates pipeline errors for any point.
pub fn buffer_depth_sweep(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
    depths: &[usize],
) -> Result<Vec<NocSweepPoint>, CoreError> {
    sweep_points(
        graph,
        mapping,
        base,
        depths.iter().copied(),
        |d| format!("buffer_depth={d}"),
        |&d, noc| noc.buffer_depth = d,
    )
}

/// Sweeps the packet size in flits (AER payload over link width).
///
/// # Errors
///
/// Propagates pipeline errors for any point.
pub fn packet_size_sweep(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
    flit_counts: &[u32],
) -> Result<Vec<NocSweepPoint>, CoreError> {
    sweep_points(
        graph,
        mapping,
        base,
        flit_counts.iter().copied(),
        |f| format!("flits_per_packet={f}"),
        |&f, noc| noc.flits_per_packet = f,
    )
}

/// Sweeps the arbitration ("selection") policy.
///
/// # Errors
///
/// Propagates pipeline errors for any point.
pub fn arbitration_sweep(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
) -> Result<Vec<NocSweepPoint>, CoreError> {
    sweep_points(
        graph,
        mapping,
        base,
        [
            Arbitration::RoundRobin,
            Arbitration::OldestFirst,
            Arbitration::FixedPriority,
        ],
        |arb| format!("arbitration={arb:?}"),
        |&arb, noc| noc.arbitration = arb,
    )
}

/// Sweeps the interconnect clock ratio (cycles per SNN timestep) — the
/// power/performance axis the §V-B analysis walks.
///
/// # Errors
///
/// Propagates pipeline errors for any point.
pub fn clock_sweep(
    graph: &SpikeGraph,
    mapping: &Mapping,
    base: &PipelineConfig,
    cycles_per_step: &[u64],
) -> Result<Vec<NocSweepPoint>, CoreError> {
    sweep_points(
        graph,
        mapping,
        base,
        cycles_per_step.iter().copied(),
        |c| format!("cycles_per_step={c}"),
        |&c, noc| noc.cycles_per_step = c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PacmanPartitioner;
    use crate::partition::{PartitionProblem, Partitioner};
    use neuromap_hw::arch::{Architecture, InterconnectKind};
    use neuromap_snn::spikes::SpikeTrain;

    fn setup() -> (SpikeGraph, Mapping, PipelineConfig) {
        // a bursty two-layer net
        let mut synapses = Vec::new();
        for a in 0..8u32 {
            for b in 8..16u32 {
                synapses.push((a, b));
            }
        }
        let trains: Vec<SpikeTrain> = (0..16)
            .map(|i| {
                if i < 8 {
                    SpikeTrain::from_times((0..20).map(|k| k * 10).collect())
                } else {
                    SpikeTrain::new()
                }
            })
            .collect();
        let graph = SpikeGraph::from_trains(16, synapses, trains).unwrap();
        let arch = Architecture::custom(4, 6, InterconnectKind::Mesh).unwrap();
        let cfg = PipelineConfig::for_arch(arch);
        let problem = PartitionProblem::new(&graph, 4, 6).unwrap();
        let mapping = PacmanPartitioner::new().partition(&problem).unwrap();
        (graph, mapping, cfg)
    }

    #[test]
    fn sweep_points_identical_across_engines() {
        // a sweep is many simulator runs — assert each point agrees with
        // the oracle engine byte-for-byte
        let (graph, mapping, cfg) = setup();
        let oracle_cfg = cfg
            .clone()
            .with_engine(neuromap_noc::sim::EngineKind::CycleOracle);
        let depths = [1usize, 2, 8];
        let ev = buffer_depth_sweep(&graph, &mapping, &cfg, &depths).unwrap();
        let or = buffer_depth_sweep(&graph, &mapping, &oracle_cfg, &depths).unwrap();
        assert_eq!(ev.len(), or.len());
        for (e, o) in ev.iter().zip(&or) {
            assert_eq!(e.setting, o.setting);
            assert_eq!(
                e.stats.digest().unwrap(),
                o.stats.digest().unwrap(),
                "{}",
                e.setting
            );
        }
    }

    #[test]
    fn sweep_runs_on_a_256_crossbar_mesh() {
        // a PSO-produced mapping on a full 16 × 16 mesh: the optimizer
        // exercises the multi-word batched evaluator end to end, and the
        // interconnect sweep stays conservation-clean at 256 routers
        use crate::partition::FitnessKind;
        use crate::pso::{PsoConfig, PsoPartitioner};

        // ring-of-rings: 320 neurons, local chains plus long skips
        let n = 320u32;
        let mut synapses = Vec::new();
        for i in 0..n {
            synapses.push((i, (i + 1) % n));
            if i % 5 == 0 {
                synapses.push((i, (i + 97) % n));
            }
        }
        let trains: Vec<SpikeTrain> = (0..n)
            .map(|i| SpikeTrain::from_times((0..3).map(|k| k * 80 + (i % 11)).collect()))
            .collect();
        let graph = SpikeGraph::from_trains(n, synapses, trains).unwrap();
        let arch = Architecture::custom(256, 2, InterconnectKind::Mesh).unwrap();
        let cfg = PipelineConfig::for_arch(arch);
        let problem = PartitionProblem::new(&graph, 256, 2).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 6,
            iterations: 3,
            fitness: FitnessKind::CutPackets,
            polish_passes: 1,
            ..PsoConfig::default()
        });
        let mapping = pso.partition(&problem).unwrap();
        let pts = buffer_depth_sweep(&graph, &mapping, &cfg, &[1, 4]).unwrap();
        assert_eq!(pts.len(), 2);
        let d0 = pts[0].stats.delivered;
        assert!(d0 > 0, "traffic must actually cross the mesh");
        assert!(pts.iter().all(|p| p.stats.delivered == d0));
    }

    #[test]
    fn mixed_sweep_reuses_the_shared_topology() {
        // one pipeline, heterogeneous (depth, vc) points: every point
        // must evaluate over the same Arc'd router graph (no rebuild),
        // conserve deliveries, and carry per-VC stats only when vc > 1
        let (graph, mapping, cfg) = setup();
        let pipeline = MappingPipeline::new(cfg.clone());
        let before = std::sync::Arc::strong_count(&pipeline.shared_topology());
        let pts = mixed_sweep_with(
            &pipeline,
            &graph,
            &mapping,
            &[
                NocOverride {
                    buffer_depth: Some(64),
                    vc_count: None,
                },
                NocOverride {
                    buffer_depth: Some(2),
                    vc_count: Some(2),
                },
                NocOverride::default(),
            ],
        )
        .unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].setting, "buffer_depth=64,vc_count=1");
        assert_eq!(pts[1].setting, "buffer_depth=2,vc_count=2");
        assert_eq!(pts[2].setting, "buffer_depth=4,vc_count=1");
        let d0 = pts[0].stats.delivered;
        assert!(d0 > 0);
        assert!(pts.iter().all(|p| p.stats.delivered == d0));
        assert_eq!(pts[1].stats.per_vc.len(), 2);
        assert!(pts[0].stats.per_vc.is_empty());
        assert!(pts[2].stats.per_vc.is_empty());
        // the sweep held no extra topology references after finishing,
        // and derived pipelines share the instance rather than rebuild
        assert_eq!(
            std::sync::Arc::strong_count(&pipeline.shared_topology()),
            before
        );
        let derived = pipeline.with_noc(cfg.noc);
        assert!(std::sync::Arc::ptr_eq(
            &pipeline.shared_topology(),
            &derived.shared_topology()
        ));
    }

    #[test]
    fn mixed_sweep_covers_the_vc_depth_tradeoff_on_a_torus() {
        // the study the override exists for: deep single-VC buffers vs
        // shallow dual-VC buffers on a wraparound fabric, one sweep
        let (graph, mapping, _) = setup();
        let arch = Architecture::custom(4, 6, InterconnectKind::Torus).unwrap();
        let cfg = PipelineConfig::for_arch(arch);
        let pts = mixed_sweep(
            &graph,
            &mapping,
            &cfg,
            &[
                NocOverride {
                    buffer_depth: Some(64),
                    vc_count: Some(1),
                },
                NocOverride {
                    buffer_depth: Some(2),
                    vc_count: Some(2),
                },
            ],
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        let d0 = pts[0].stats.delivered;
        assert!(pts.iter().all(|p| p.stats.delivered == d0));
    }

    #[test]
    fn deeper_buffers_do_not_increase_latency() {
        let (graph, mapping, cfg) = setup();
        let pts = buffer_depth_sweep(&graph, &mapping, &cfg, &[1, 4, 16]).unwrap();
        assert_eq!(pts.len(), 3);
        // deliveries conserved across the sweep
        let d0 = pts[0].stats.delivered;
        assert!(pts.iter().all(|p| p.stats.delivered == d0));
        // backpressure stalls with depth 1 must not beat depth 16
        assert!(
            pts[2].stats.avg_latency_cycles <= pts[0].stats.avg_latency_cycles + 1e-9,
            "deep buffers should not be slower: {} vs {}",
            pts[2].stats.avg_latency_cycles,
            pts[0].stats.avg_latency_cycles
        );
    }

    #[test]
    fn bigger_packets_cost_more_link_energy() {
        let (graph, mapping, cfg) = setup();
        let pts = packet_size_sweep(&graph, &mapping, &cfg, &[1, 4]).unwrap();
        assert!(pts[1].stats.counters.link_flits > pts[0].stats.counters.link_flits);
        assert!(pts[1].stats.global_energy_pj > pts[0].stats.global_energy_pj);
    }

    #[test]
    fn arbitration_conserves_traffic() {
        let (graph, mapping, cfg) = setup();
        let pts = arbitration_sweep(&graph, &mapping, &cfg).unwrap();
        assert_eq!(pts.len(), 3);
        let d0 = pts[0].stats.delivered;
        assert!(pts.iter().all(|p| p.stats.delivered == d0));
    }

    #[test]
    fn traced_sweep_points_carry_a_spotter_report() {
        // tracing on: every point gets a spotter report; tracing off
        // (the default): the field stays None and is skipped in JSON,
        // keeping pre-trace sweep outputs byte-identical
        let (graph, mapping, mut cfg) = setup();
        let plain = buffer_depth_sweep(&graph, &mapping, &cfg, &[1]).unwrap();
        assert!(plain[0].hotspots.is_none());
        let json = serde_json::to_string(&plain[0]).unwrap();
        assert!(
            !json.contains("hotspots"),
            "absent report must serialize away"
        );
        let back: NocSweepPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain[0]);

        cfg.noc.trace = true;
        let traced = buffer_depth_sweep(&graph, &mapping, &cfg, &[1]).unwrap();
        let report = traced[0]
            .hotspots
            .as_ref()
            .expect("traced point spots lanes");
        // the bursty two-layer net saturates depth-1 FIFOs: the spotter
        // must surface at least one lane, and tracing must not perturb
        // the simulated statistics
        assert!(!report.lanes.is_empty());
        assert_eq!(
            traced[0].stats.digest().unwrap(),
            plain[0].stats.digest().unwrap(),
            "tracing must not change the statistics"
        );
    }

    #[test]
    fn slower_clock_raises_distortion() {
        let (graph, mapping, cfg) = setup();
        let pts = clock_sweep(&graph, &mapping, &cfg, &[16, 4096]).unwrap();
        assert!(
            pts[0].stats.avg_isi_distortion_cycles >= pts[1].stats.avg_isi_distortion_cycles,
            "congested clock must distort at least as much: {} vs {}",
            pts[0].stats.avg_isi_distortion_cycles,
            pts[1].stats.avg_isi_distortion_cycles
        );
    }
}
