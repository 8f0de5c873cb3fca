//! The §V-B claim as an integration test: for the temporally coded
//! heartbeat application, interconnect congestion (ISI distortion) costs
//! temporal-code fidelity, and the PSO mapping — which reduces congestion —
//! preserves more of it than PACMAN at power-limited clock rates.

use neuromap::apps::heartbeat::HeartbeatEstimation;
use neuromap::apps::App;
use neuromap::core::baselines::PacmanPartitioner;
use neuromap::core::partition::{PartitionProblem, Partitioner};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::MappingPipeline;
use neuromap::core::PipelineConfig;
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::noc::stats::temporal_fidelity;

#[test]
fn lsm_estimates_heart_rate_from_spikes() {
    let app = HeartbeatEstimation {
        duration_ms: 4000,
        ..HeartbeatEstimation::default()
    };
    let (_, record) = app.run(3).expect("simulates");
    let (ecg, _) = app.encoded_input(3);
    let acc = app.estimate_accuracy(&record, ecg.mean_rr());
    assert!(acc > 0.7, "baseline RR accuracy too low: {acc}");
}

#[test]
fn congestion_degrades_temporal_fidelity_and_pso_resists() {
    let app = HeartbeatEstimation {
        duration_ms: 3000,
        ..HeartbeatEstimation::default()
    };
    let graph = app.spike_graph(5).expect("simulates");
    let arch = Architecture::custom(4, 24, InterconnectKind::Tree { arity: 4 }).unwrap();
    let problem = PartitionProblem::new(&graph, 4, 24).unwrap();
    let m_pacman = PacmanPartitioner::new().partition(&problem).unwrap();
    let m_pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 20,
        iterations: 20,
        ..PsoConfig::default()
    })
    .partition(&problem)
    .unwrap();

    let fidelity = |mapping: &neuromap::hw::Mapping, cycles: u64| {
        let mut cfg = PipelineConfig::for_arch(arch.clone());
        cfg.noc.cycles_per_step = cycles;
        let (evaluation, log) = MappingPipeline::new(cfg)
            .evaluate_logged(&graph, mapping.clone(), "x", "identity")
            .expect("evaluates");
        (
            evaluation.report.noc.avg_isi_distortion_cycles,
            temporal_fidelity(&log, cycles),
        )
    };

    // fast clock: both mappings deliver faithfully
    let (_, fid_pso_fast) = fidelity(&m_pso, 4096);
    assert!(
        fid_pso_fast > 0.95,
        "fast clock should be faithful: {fid_pso_fast}"
    );

    // power-limited clock: congestion differentiates the mappings
    let (isi_pacman, fid_pacman) = fidelity(&m_pacman, 96);
    let (isi_pso, fid_pso) = fidelity(&m_pso, 96);
    assert!(
        isi_pso < isi_pacman,
        "PSO must reduce ISI distortion: {isi_pso} !< {isi_pacman}"
    );
    assert!(
        fid_pso >= fid_pacman,
        "lower distortion must not reduce fidelity: {fid_pso} !>= {fid_pacman}"
    );
    // and the slow clock genuinely hurts the congested mapping
    let (_, fid_pacman_fast) = fidelity(&m_pacman, 4096);
    assert!(
        fid_pacman < fid_pacman_fast,
        "congestion should cost PACMAN fidelity: {fid_pacman} !< {fid_pacman_fast}"
    );
}
