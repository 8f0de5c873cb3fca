//! The temporally coded heartbeat workload: synthetic ECG → level-crossing
//! spike encoding → liquid state machine → R-R estimation, then the §V-B
//! study — how interconnect congestion (ISI distortion) corrupts the
//! temporal code when the chip runs at a low-power clock.
//!
//! Run: `cargo run --release --example heartbeat_estimation`

use neuromap::apps::heartbeat::HeartbeatEstimation;
use neuromap::apps::App;
use neuromap::core::baselines::PacmanPartitioner;
use neuromap::core::partition::{PartitionProblem, Partitioner};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig};
use neuromap::hw::arch::{Architecture, InterconnectKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = HeartbeatEstimation {
        duration_ms: 4000,
        ..HeartbeatEstimation::default()
    };

    // the application itself: estimate the heart rate from spikes
    let (ecg, trains) = app.encoded_input(11);
    println!(
        "synthetic ECG: {} beats over {} ms (truth mean RR = {:.0} ms)",
        ecg.r_peaks.len(),
        app.duration_ms,
        ecg.mean_rr()
    );
    println!(
        "level-crossing encoder: {} up-spikes, {} down-spikes",
        trains[0].len(),
        trains[1].len()
    );

    let (_, record) = app.run(11)?;
    let est = app.estimate_rr(&record);
    println!(
        "LSM readout estimate: {:?} ms → accuracy {:.1}%",
        est,
        app.estimate_accuracy(&record, ecg.mean_rr()) * 100.0
    );

    // now map it on hardware and push the interconnect into the
    // power-limited regime
    let graph = app.spike_graph(11)?;
    let arch = Architecture::custom(4, 24, InterconnectKind::Tree { arity: 4 })?;
    let problem = PartitionProblem::new(&graph, 4, 24)?;

    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 30,
        iterations: 30,
        ..PsoConfig::default()
    });
    let m_pso = pso.partition(&problem)?;
    let m_pacman = PacmanPartitioner::new().partition(&problem)?;

    println!("\ninterconnect clock sweep (slower clock = lower power = more congestion):");
    println!(
        "{:>10} {:>22} {:>22}",
        "cycles/ms", "PACMAN ISI dist (cyc)", "PSO ISI dist (cyc)"
    );
    for cycles in [64u64, 256, 1024] {
        let mut cfg = PipelineConfig::for_arch(arch.clone());
        cfg.noc.cycles_per_step = cycles;
        let pipeline = MappingPipeline::new(cfg);
        let r_pacman = pipeline
            .evaluate(&graph, m_pacman.clone(), "pacman", "identity")?
            .report;
        let r_pso = pipeline
            .evaluate(&graph, m_pso.clone(), "pso", "identity")?
            .report;
        println!(
            "{:>10} {:>22.1} {:>22.1}",
            cycles, r_pacman.noc.avg_isi_distortion_cycles, r_pso.noc.avg_isi_distortion_cycles
        );
    }
    println!("\ntemporally coded applications feel every one of those cycles (paper §V-B)");
    Ok(())
}
