//! # neuromap-bench — reproduction harness for Das et al. (DATE 2018)
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Artifact | Binary | Paper content |
//! |---|---|---|
//! | Fig. 5 | `repro_fig5` | normalized interconnect energy, NEUTRAMS vs PACMAN vs PSO |
//! | Table II | `repro_table2` | ISI distortion / disorder / throughput / latency, PACMAN vs PSO |
//! | Fig. 6 | `repro_fig6` | architecture exploration (neurons per crossbar sweep) |
//! | Fig. 7 | `repro_fig7` | swarm-size exploration |
//! | ablation | `repro_ablation` | warm-start/polish and objective ablations |
//! | placement | `repro_placement` | identity vs hop-optimized cluster placement (64/256-crossbar mesh + torus) |
//! | all | `repro_all` | everything above in sequence |
//!
//! Every binary accepts `--paper` for paper-scale parameters (swarm 1000 ×
//! 100 iterations — slow) and defaults to a quick mode that preserves the
//! qualitative shapes.
//!
//! Performance is measured in two places and nowhere else. End-to-end
//! numbers and per-layer timings are `mapbench`'s (`benchmark/`,
//! `BENCHMARK.json`). The two benches under `benches/` write
//! `BENCH_eval.json` and `BENCH_noc.json`, which hold only same-run
//! baseline/candidate pairs — the kernel-level explanations of a
//! mapbench stage — and [`ledger`] states that row rule, pairs the rows
//! and gates every ratio against the one table of bounds.

use neuromap_apps::synthetic::Synthetic;
use neuromap_apps::App;
use neuromap_core::baselines::{NeutramsPartitioner, PacmanPartitioner};
use neuromap_core::partition::FitnessKind;
use neuromap_core::partition::Partitioner;
use neuromap_core::pipeline::PipelineConfig;
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_core::{CoreError, SpikeGraph};
use neuromap_hw::arch::{Architecture, InterconnectKind};

pub mod ledger;
pub mod noc_workloads;
pub mod sweep;

/// Crossbar capacity of the CxQuad-class chips the experiments map onto
/// (128 neurons per crossbar, Section II of the paper).
pub const CROSSBAR_NEURONS: u32 = 128;

/// Experiment scale, selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast parameters that preserve the qualitative shapes (default).
    Quick,
    /// The paper's parameters (swarm 1000, 100 iterations) — slow.
    Paper,
}

impl Scale {
    /// Parses `--paper` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }

    /// PSO configuration at this scale.
    ///
    /// Quick mode uses the memetic setup (baseline warm start + greedy
    /// polish, multicast-aware fitness) so a 40-particle swarm reaches the
    /// solution quality the paper obtains with 1000 particles × 100
    /// iterations; paper mode runs the pure PSO at the paper's parameters
    /// (plus polish, which the interconnect-energy objective still needs
    /// because Eq. 8 is a per-synapse proxy for packet traffic).
    pub fn pso(self, seed: u64) -> PsoConfig {
        match self {
            Scale::Quick => PsoConfig {
                swarm_size: 40,
                iterations: 40,
                seed,
                threads: 4,
                fitness: FitnessKind::CutSpikes,
                seed_baselines: true,
                polish_passes: 8,
                ..PsoConfig::default()
            },
            Scale::Paper => PsoConfig {
                seed,
                threads: 8,
                fitness: FitnessKind::CutSpikes,
                polish_passes: 8,
                ..PsoConfig::paper()
            },
        }
    }

    /// Simulation length (ms) for the realistic apps at this scale.
    pub fn sim_ms(self) -> u32 {
        match self {
            Scale::Quick => 500,
            Scale::Paper => 1000,
        }
    }
}

/// The CxQuad-class architecture an application maps onto: 128-neuron
/// crossbars on a NoC-tree of arity 4, with enough crossbars for the
/// application plus ~15% slack (partitioners need spare capacity to move
/// neurons around), and at least the 4 crossbars of a CxQuad chip.
pub fn arch_for(num_neurons: u32) -> Architecture {
    let needed = (num_neurons as f64 * 1.15 / CROSSBAR_NEURONS as f64).ceil() as usize;
    let crossbars = needed.max(4);
    // small applications use proportionally smaller crossbars so that the
    // mapping problem is non-degenerate (everything fitting on one
    // crossbar has a trivial zero-traffic solution)
    let capacity = if (num_neurons as u64) < 4 * CROSSBAR_NEURONS as u64 {
        (num_neurons as f64 * 1.15 / 4.0).ceil() as u32
    } else {
        CROSSBAR_NEURONS
    };
    Architecture::custom(
        crossbars,
        capacity.max(2),
        InterconnectKind::Tree { arity: 4 },
    )
    .expect("non-zero dimensions")
}

/// Pipeline configuration for an application of `num_neurons` neurons:
/// the CxQuad-class architecture of [`arch_for`] with an 8.2 MHz-class
/// interconnect (8192 cycles per 1 ms SNN timestep): fast enough that
/// dense workloads drain, slow enough that burst tails occasionally cross
/// timestep boundaries — the regime where spike disorder appears.
pub fn config_for(num_neurons: u32) -> PipelineConfig {
    let mut cfg = PipelineConfig::for_arch(arch_for(num_neurons));
    cfg.noc.cycles_per_step = 8192;
    cfg
}

/// The three partitioners of Fig. 5, in plot order.
pub fn fig5_partitioners(scale: Scale) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(NeutramsPartitioner::new()),
        Box::new(PacmanPartitioner::new()),
        Box::new(PsoPartitioner::new(scale.pso(0xF165))),
    ]
}

/// Builds the spike graphs of the realistic applications at the given
/// scale (shortened simulations in quick mode).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn realistic_graphs(scale: Scale) -> Result<Vec<(String, SpikeGraph)>, CoreError> {
    use neuromap_apps::digit_recognition::DigitRecognition;
    use neuromap_apps::heartbeat::HeartbeatEstimation;
    use neuromap_apps::hello_world::HelloWorld;
    use neuromap_apps::image_smoothing::ImageSmoothing;

    let hw = HelloWorld {
        steps: scale.sim_ms(),
        ..HelloWorld::default()
    };
    let is = ImageSmoothing {
        steps: scale.sim_ms(),
        ..ImageSmoothing::default()
    };
    let hd = match scale {
        Scale::Quick => DigitRecognition {
            presentations: 4,
            present_ms: 100,
            rest_ms: 25,
            ..DigitRecognition::default()
        },
        Scale::Paper => DigitRecognition::default(),
    };
    let he = HeartbeatEstimation {
        duration_ms: scale.sim_ms().max(3000),
        ..HeartbeatEstimation::default()
    };

    Ok(vec![
        (hw.name(), hw.spike_graph(SEED)?),
        (is.name(), is.spike_graph(SEED)?),
        (hd.name(), hd.spike_graph(SEED)?),
        (he.name(), he.spike_graph(SEED)?),
    ])
}

/// Builds the spike graphs of the eight synthetic Fig. 5 topologies.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn synthetic_graphs(scale: Scale) -> Result<Vec<(String, SpikeGraph)>, CoreError> {
    neuromap_apps::synthetic::fig5_topologies()
        .into_iter()
        .map(|t| {
            let t = Synthetic {
                steps: scale.sim_ms(),
                ..t
            };
            Ok((t.name(), t.spike_graph(SEED)?))
        })
        .collect()
}

/// Fixed seed for all reproduction binaries.
pub const SEED: u64 = 2018;

/// Prints a markdown-style table: header row + aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_capacity_has_slack() {
        let arch = arch_for(1024);
        let capacity = |a: &Architecture| a.num_crossbars() as u32 * a.neurons_per_crossbar();
        assert!(capacity(&arch) as f64 >= 1024.0 * 1.1);
        assert_eq!(arch.neurons_per_crossbar(), CROSSBAR_NEURONS);
        // small apps get 4 proportionally smaller crossbars
        let small = arch_for(126);
        assert_eq!(small.num_crossbars(), 4);
        assert!(small.neurons_per_crossbar() < CROSSBAR_NEURONS);
        assert!(capacity(&small) >= 126);
    }

    #[test]
    fn quick_scale_is_default() {
        // from_args in a test harness has no --paper flag
        assert_eq!(Scale::from_args(), Scale::Quick);
    }

    #[test]
    fn partitioner_lineup() {
        let names: Vec<&str> = fig5_partitioners(Scale::Quick)
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names, vec!["neutrams", "pacman", "pso"]);
    }
}
