//! Architecture exploration with the staged mapping pipeline: the same
//! application partitioned once per fabric, then mapped through both
//! placement strategies — identity (cluster `k` wired to router `k`, the
//! paper's implicit choice) and hop-optimized (the SpiNeMap-style second
//! stage) — onto mesh, tree, torus and star interconnects.
//!
//! Each fabric builds one `MappingPipeline`, so its router graph and
//! all-pairs hop-distance table are derived once and shared by the
//! partition problem, the placement optimizer, and the report's hop
//! metrics.
//!
//! Run: `cargo run --release --example architecture_exploration`

use neuromap::apps::{synthetic::Synthetic, App};
use neuromap::core::pipeline::{MappingPipeline, PipelineConfig, PlacementStrategy};
use neuromap::core::place::PlaceConfig;
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::hw::arch::{Architecture, InterconnectKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = Synthetic {
        steps: 400,
        ..Synthetic::new(3, 60)
    };
    let graph = app.spike_graph(3)?;
    println!(
        "application {}: {} neurons, {} synapses\n",
        app.name(),
        graph.num_neurons(),
        graph.num_synapses()
    );

    let fabrics = [
        ("mesh", InterconnectKind::Mesh),
        ("tree (arity 4)", InterconnectKind::Tree { arity: 4 }),
        ("tree (arity 2)", InterconnectKind::Tree { arity: 2 }),
        ("torus", InterconnectKind::Torus),
        ("star", InterconnectKind::Star),
    ];

    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 24,
        iterations: 24,
        threads: 4,
        ..PsoConfig::default()
    });

    println!(
        "{:<16} {:<13} {:>12} {:>9} {:>10} {:>10} {:>12}",
        "interconnect", "placement", "global pJ", "avg hops", "hop·pkts", "avg lat", "ISI dist"
    );
    for (name, kind) in fabrics {
        let arch = Architecture::custom(9, 24, kind)?;
        // one pipeline per fabric: topology + DistanceLut built once,
        // reused by every stage below
        let pipeline = MappingPipeline::new(PipelineConfig::for_arch(arch));

        // stage 1 once; both placement strategies start from the same
        // partition so the comparison isolates the placement stage
        let mapping = pipeline.partition(&graph, &pso)?;

        let optimized =
            pipeline.with_placement(PlacementStrategy::HopOptimized(PlaceConfig::default()));
        for pipe in [&pipeline, &optimized] {
            let (placed, _, label) = pipe.place(&graph, &mapping)?;
            let report = pipe.evaluate(&graph, placed, "pso", &label)?.report;
            println!(
                "{:<16} {:<13} {:>12.1} {:>9.2} {:>10} {:>10.1} {:>12.1}",
                name,
                report.placement,
                report.global_energy_pj,
                report.avg_hops,
                report.hop_weighted_packets,
                report.noc.avg_latency_cycles,
                report.noc.avg_isi_distortion_cycles,
            );
        }
    }
    println!("\nhop count and contention differ per fabric; the placement stage shortens routes");
    println!("without touching the partition (cut packets are placement-invariant)");
    Ok(())
}
