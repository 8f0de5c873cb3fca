//! Ablation of this reproduction's design choices (see DESIGN.md §core):
//!
//! 1. **PSO variants** — pure binary PSO (the paper's algorithm) vs the
//!    memetic additions used at quick scale: baseline warm starts and
//!    greedy polish. Shows what each buys at a fixed compute budget.
//! 2. **Objective** — the paper's per-synapse Eq. 8 (`CutSpikes`) vs the
//!    multicast-aware packet objective (`CutPackets`), each evaluated under
//!    both traffic accountings.
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_ablation [--paper]`

use neuromap_apps::hello_world::HelloWorld;
use neuromap_apps::synthetic::Synthetic;
use neuromap_apps::App;
use neuromap_bench::{config_for, print_table, Scale, SEED};
use neuromap_core::partition::{FitnessKind, PartitionProblem, Partitioner};
use neuromap_core::pipeline::{MappingPipeline, TrafficMode};
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_core::SpikeGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("# Ablation — PSO design choices ({scale:?} scale)\n");

    let hw = HelloWorld {
        steps: scale.sim_ms(),
        ..HelloWorld::default()
    };
    let s22 = Synthetic {
        steps: scale.sim_ms(),
        ..Synthetic::new(2, 200)
    };
    let apps: Vec<(String, SpikeGraph)> = vec![
        (hw.name(), hw.spike_graph(SEED)?),
        (s22.name(), s22.spike_graph(SEED)?),
    ];

    println!("## 1. warm start and polish (objective: Eq. 8 cut spikes)\n");
    let base = scale.pso(0xAB1A);
    let variants: [(&str, PsoConfig); 4] = [
        (
            "pure PSO",
            PsoConfig {
                seed_baselines: false,
                polish_passes: 0,
                ..base
            },
        ),
        (
            "+ warm start",
            PsoConfig {
                seed_baselines: true,
                polish_passes: 0,
                ..base
            },
        ),
        (
            "+ polish",
            PsoConfig {
                seed_baselines: false,
                polish_passes: 8,
                ..base
            },
        ),
        (
            "+ both (default)",
            PsoConfig {
                seed_baselines: true,
                polish_passes: 8,
                ..base
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, graph) in &apps {
        let cfg = config_for(graph.num_neurons());
        let problem = PartitionProblem::new(
            graph,
            cfg.arch.num_crossbars(),
            cfg.arch.neurons_per_crossbar(),
        )?;
        let mut row = vec![name.clone()];
        for (_, vcfg) in &variants {
            let pso = PsoPartitioner::new(PsoConfig {
                fitness: FitnessKind::CutSpikes,
                ..*vcfg
            });
            let m = pso.partition(&problem)?;
            row.push(problem.cut_spikes(m.assignment()).to_string());
        }
        rows.push(row);
    }
    print_table(
        &[
            "app",
            "pure PSO",
            "+ warm start",
            "+ polish",
            "+ both (default)",
        ],
        &rows,
    );

    println!("\n## 2. objective × traffic accounting (energy in pJ)\n");
    let mut rows = Vec::new();
    for (name, graph) in &apps {
        for traffic in [TrafficMode::PerSynapse, TrafficMode::PerCrossbar] {
            let mut cfg = config_for(graph.num_neurons());
            cfg.traffic = traffic;
            let problem = PartitionProblem::new(
                graph,
                cfg.arch.num_crossbars(),
                cfg.arch.neurons_per_crossbar(),
            )?;
            let pipeline = MappingPipeline::new(cfg);
            let mut row = vec![name.clone(), format!("{traffic:?}")];
            for fitness in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
                let pso = PsoPartitioner::new(PsoConfig {
                    fitness,
                    ..scale.pso(0xAB1A)
                });
                let m = pso.partition(&problem)?;
                let report = pipeline.evaluate(graph, m, "pso", "identity")?.report;
                row.push(format!("{:.0}", report.global_energy_pj));
            }
            rows.push(row);
        }
    }
    print_table(
        &[
            "app",
            "traffic accounting",
            "optimize CutSpikes",
            "optimize CutPackets",
        ],
        &rows,
    );
    println!("\nmatching the objective to the traffic accounting should win its own column");
    Ok(())
}
