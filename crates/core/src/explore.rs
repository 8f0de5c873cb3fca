//! Design-space exploration: the architecture sweep of the paper's Fig. 6
//! and the swarm-size sweep of Fig. 7.

use crate::error::CoreError;
use crate::graph::SpikeGraph;
use crate::partition::Partitioner;
use crate::pipeline::{MappingPipeline, PipelineConfig};
use crate::pso::{PsoConfig, PsoPartitioner};
use neuromap_hw::energy::pj_to_uj;
use serde::{Deserialize, Serialize};

/// One point of the Fig. 6 architecture exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchPoint {
    /// Neurons per crossbar at this point.
    pub neurons_per_crossbar: u32,
    /// Crossbars needed for the application at that size.
    pub num_crossbars: usize,
    /// Local (in-crossbar) synapse energy, µJ.
    pub local_energy_uj: f64,
    /// Global (interconnect) synapse energy, µJ.
    pub global_energy_uj: f64,
    /// Total synapse energy, µJ.
    pub total_energy_uj: f64,
    /// Worst-case spike latency on the interconnect, cycles.
    pub worst_latency_cycles: u64,
}

/// Sweeps the crossbar size for a fixed application (Fig. 6): at each size
/// the chip is re-derived from `base` (same interconnect kind and energy
/// model), the SNN is re-partitioned, and local/global energy plus
/// worst-case latency are measured.
///
/// # Errors
///
/// Propagates any pipeline error for a sweep point.
pub fn architecture_sweep(
    graph: &SpikeGraph,
    base: &PipelineConfig,
    sizes: &[u32],
    partitioner: &dyn Partitioner,
) -> Result<Vec<ArchPoint>, CoreError> {
    let mut points = Vec::with_capacity(sizes.len());
    for &npc in sizes {
        let arch = base.arch.with_crossbar_size(npc, graph.num_neurons())?;
        // each sweep point is a different chip, so each gets its own
        // staged pipeline (topology + distance table derived once per
        // point and shared across its stages)
        let pipeline = MappingPipeline::new(PipelineConfig {
            arch,
            ..base.clone()
        });
        let report = pipeline.run(graph, partitioner)?;
        points.push(ArchPoint {
            neurons_per_crossbar: npc,
            num_crossbars: pipeline.config().arch.num_crossbars(),
            local_energy_uj: pj_to_uj(report.local_energy_pj),
            global_energy_uj: pj_to_uj(report.global_energy_pj),
            total_energy_uj: pj_to_uj(report.total_energy_pj),
            worst_latency_cycles: report.noc.max_latency_cycles,
        });
    }
    Ok(points)
}

/// One point of the Fig. 7 swarm-size exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwarmPoint {
    /// Particles in the swarm.
    pub swarm_size: usize,
    /// Best cut-spike fitness found.
    pub cut_spikes: u64,
    /// Interconnect energy of the resulting mapping, pJ.
    pub global_energy_pj: f64,
    /// Iteration at which the best was first reached.
    pub converged_at: u32,
}

/// Sweeps the PSO swarm size for a fixed application and architecture
/// (Fig. 7): all other PSO parameters come from `base` (the paper fixes
/// iterations at 100 and uses pure PSO — no warm start, no polish — which
/// is what makes the swarm-size dependence visible).
///
/// # Errors
///
/// Propagates PSO and pipeline errors.
pub fn swarm_sweep(
    graph: &SpikeGraph,
    config: &PipelineConfig,
    swarm_sizes: &[usize],
    base: PsoConfig,
) -> Result<Vec<SwarmPoint>, CoreError> {
    // one architecture across the whole sweep: build the staged pipeline
    // (topology + distance table) once and reuse it for every point
    let pipeline = MappingPipeline::new(config.clone());
    let problem = pipeline.problem(graph)?;
    let mut points = Vec::with_capacity(swarm_sizes.len());
    for &n in swarm_sizes {
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: n,
            ..base
        });
        let (mapping, trace) = pso.partition_traced(&problem)?;
        let cut = problem.cut_spikes(mapping.assignment());
        let report = pipeline.evaluate(graph, mapping, "pso", "identity")?.report;
        points.push(SwarmPoint {
            swarm_size: n,
            cut_spikes: cut,
            global_energy_pj: report.global_energy_pj,
            converged_at: trace.converged_at,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PacmanPartitioner;
    use neuromap_hw::arch::{Architecture, InterconnectKind};
    use neuromap_snn::spikes::SpikeTrain;

    fn graph() -> SpikeGraph {
        // 3 layers × 6 neurons, dense feedforward
        let mut synapses = Vec::new();
        for l in 0..2u32 {
            for a in 0..6u32 {
                for b in 0..6u32 {
                    synapses.push((l * 6 + a, (l + 1) * 6 + b));
                }
            }
        }
        let trains: Vec<SpikeTrain> = (0..18)
            .map(|i| SpikeTrain::from_times((0..8).map(|k| k * 40 + (i % 5)).collect()))
            .collect();
        SpikeGraph::from_trains(18, synapses, trains).unwrap()
    }

    #[test]
    fn sweep_shapes_match_figure6() {
        let g = graph();
        let base =
            PipelineConfig::for_arch(Architecture::custom(4, 6, InterconnectKind::Mesh).unwrap());
        let sizes = [3u32, 6, 9, 18];
        let pts = architecture_sweep(&g, &base, &sizes, &PacmanPartitioner::new()).unwrap();
        assert_eq!(pts.len(), 4);
        // crossbar count shrinks as size grows
        assert!(pts
            .windows(2)
            .all(|w| w[1].num_crossbars <= w[0].num_crossbars));
        // at the largest size everything is local
        let last = pts.last().unwrap();
        assert_eq!(last.global_energy_uj, 0.0);
        assert!(last.local_energy_uj > 0.0);
        // global energy decreases along the sweep
        assert!(pts
            .windows(2)
            .all(|w| w[1].global_energy_uj <= w[0].global_energy_uj));
    }

    #[test]
    fn architecture_sweep_crosses_the_64_crossbar_envelope() {
        // 90 neurons at crossbar sizes 1 and 5 → 90 and 18 crossbars: the
        // first sweep point runs the PSO's batched CutPackets evaluator
        // in its multi-word regime, the second in the single-word regime;
        // the reported cut must match a scalar recompute at every point
        let mut synapses = Vec::new();
        for a in 0..45u32 {
            synapses.push((a, a + 45));
            synapses.push((a, (a + 1) % 45));
        }
        let trains: Vec<SpikeTrain> = (0..90)
            .map(|i| SpikeTrain::from_times((0..5).map(|k| k * 50 + (i % 7)).collect()))
            .collect();
        let g = SpikeGraph::from_trains(90, synapses, trains).unwrap();
        let base =
            PipelineConfig::for_arch(Architecture::custom(90, 1, InterconnectKind::Mesh).unwrap());
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 6,
            iterations: 4,
            fitness: crate::partition::FitnessKind::CutPackets,
            polish_passes: 0,
            ..PsoConfig::default()
        });
        let pts = architecture_sweep(&g, &base, &[1, 5], &pso).unwrap();
        assert_eq!(pts.len(), 2);
        assert!(pts[0].num_crossbars > 64, "first point must be large-arch");
        assert!(pts[1].num_crossbars <= 64);
        // more capacity per crossbar keeps more synapses local
        assert!(pts[1].global_energy_uj <= pts[0].global_energy_uj);
        assert!(pts.iter().all(|p| p.total_energy_uj > 0.0));
    }

    #[test]
    fn architecture_sweep_carries_vc_config_onto_shallow_torus_points() {
        // the base NocConfig (shallow FIFOs + 2 VCs) must survive the
        // per-point chip re-derivation: every point simulates on the
        // wraparound fabric that would be deadlock-capable without VCs,
        // and single-VC wire shape rules keep per-VC stats visible
        use neuromap_noc::config::NocConfig;
        let g = graph();
        let arch = Architecture::custom(18, 1, InterconnectKind::Torus).unwrap();
        let mut base = PipelineConfig::for_arch(arch);
        base.noc = NocConfig {
            buffer_depth: 2,
            vc_count: 2,
            ..NocConfig::default()
        };
        let pts = architecture_sweep(&g, &base, &[1, 3], &PacmanPartitioner::new()).unwrap();
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.total_energy_uj > 0.0));
        // the first point (one neuron per crossbar) must push traffic
        // through the torus rings rather than staying local
        assert!(pts[0].global_energy_uj > 0.0);
    }

    #[test]
    fn architecture_sweep_refuses_a_point_the_fabric_cannot_hold() {
        // one crossbar per chip fits the u32 distance table; the 18
        // crossbars of the size-1 point (3 × 3 per chip) do not, and the
        // sweep must say so instead of building the topology
        let g = graph();
        let hier = InterconnectKind::Hier {
            chip_cols: 2,
            chip_rows: 1,
            link_latency: u32::MAX,
            link_width: 1,
        };
        let base = PipelineConfig::for_arch(Architecture::custom(2, 9, hier).unwrap());
        let swept = architecture_sweep(&g, &base, &[1], &PacmanPartitioner::new());
        assert!(matches!(swept, Err(CoreError::Hw(_))), "{swept:?}");
    }

    #[test]
    fn swarm_sweep_improves_with_size() {
        let g = graph();
        let cfg =
            PipelineConfig::for_arch(Architecture::custom(3, 6, InterconnectKind::Star).unwrap());
        let base = PsoConfig {
            iterations: 20,
            seed: 9,
            seed_baselines: false,
            polish_passes: 0,
            ..PsoConfig::default()
        };
        let pts = swarm_sweep(&g, &cfg, &[2, 32], base).unwrap();
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].cut_spikes <= pts[0].cut_spikes,
            "32 particles must not lose to 2"
        );
    }
}
