//! Quickstart: build a small SNN, simulate it, partition it with the
//! paper's PSO, and compare the interconnect traffic against the PACMAN
//! and NEUTRAMS baselines.
//!
//! Run: `cargo run --release --example quickstart`

use neuromap::apps::{synthetic::Synthetic, App};
use neuromap::core::baselines::{NeutramsPartitioner, PacmanPartitioner};
use neuromap::core::partition::Partitioner;
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig};
use neuromap::hw::arch::{Architecture, InterconnectKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An application: a 2-layer synthetic SNN driven by 10 Poisson
    //    sources (the paper's synth_2x40 would be the m×n notation).
    let app = Synthetic {
        steps: 500,
        ..Synthetic::new(2, 40)
    };
    println!("application: {}", app.name());

    // 2. Simulate it and extract the spike graph (the CARLsim → dataflow
    //    graph step of the paper's Figure 4).
    let (net, record) = app.run(7)?;
    let rates = neuromap::snn::raster::population_rate(&record, 10..90, 25);
    println!(
        "population rate: {}",
        neuromap::snn::raster::sparkline(&rates)
    );
    let graph = neuromap::core::SpikeGraph::from_record(&net, &record);
    println!(
        "spike graph: {} neurons, {} synapses, {} spikes over {} ms",
        graph.num_neurons(),
        graph.num_synapses(),
        graph.total_spikes(),
        graph.duration_steps()
    );

    // 3. A target chip: 4 crossbars of 24 neurons joined by a NoC-tree
    //    (a quarter-scale CxQuad). The pipeline derives the router graph
    //    and its hop-distance table once; every run below shares them.
    let arch = Architecture::custom(4, 24, InterconnectKind::Tree { arity: 4 })?;
    let pipeline = MappingPipeline::new(PipelineConfig::for_arch(arch));

    // 4. Partition with PSO and with the two baselines; simulate the
    //    resulting global-synapse traffic on the interconnect.
    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 30,
        iterations: 30,
        ..PsoConfig::default()
    });
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(NeutramsPartitioner::new()),
        Box::new(PacmanPartitioner::new()),
        Box::new(pso),
    ];

    println!(
        "\n{:<10} {:>12} {:>14} {:>14} {:>12}",
        "mapping", "cut spikes", "global pJ", "local pJ", "max lat"
    );
    for p in &partitioners {
        let report = pipeline.run(&graph, p.as_ref())?;
        println!(
            "{:<10} {:>12} {:>14.1} {:>14.1} {:>12}",
            report.partitioner,
            report.cut_spikes,
            report.global_energy_pj,
            report.local_energy_pj,
            report.noc.max_latency_cycles,
        );
    }
    println!(
        "\nlower cut spikes ⇒ lower interconnect energy and latency — the paper's core result"
    );
    Ok(())
}
