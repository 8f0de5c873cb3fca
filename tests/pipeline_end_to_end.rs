//! End-to-end integration: the full Figure-4 flow (application → SNN
//! simulation → spike graph → partitioner → interconnect simulation)
//! across applications, partitioners, and architectures.

use neuromap::apps::{hello_world::HelloWorld, synthetic::Synthetic, App};
use neuromap::core::baselines::{
    GaConfig, GaPartitioner, NeutramsPartitioner, PacmanPartitioner, RandomPartitioner, SaConfig,
    SaPartitioner,
};
use neuromap::core::partition::Partitioner;
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig};
use neuromap::hw::arch::{Architecture, InterconnectKind};

fn quick_pso() -> PsoPartitioner {
    PsoPartitioner::new(PsoConfig {
        swarm_size: 20,
        iterations: 20,
        ..PsoConfig::default()
    })
}

#[test]
fn every_partitioner_completes_the_full_flow() {
    let app = Synthetic {
        steps: 300,
        ..Synthetic::new(2, 24)
    };
    let graph = app.spike_graph(1).expect("app simulates");
    let arch = Architecture::custom(4, 18, InterconnectKind::Tree { arity: 4 }).unwrap();
    let pipeline = MappingPipeline::new(PipelineConfig::for_arch(arch));

    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(NeutramsPartitioner::new()),
        Box::new(PacmanPartitioner::new()),
        Box::new(RandomPartitioner::new(3)),
        Box::new(SaPartitioner::new(SaConfig {
            moves: 3000,
            ..SaConfig::default()
        })),
        Box::new(GaPartitioner::new(GaConfig {
            generations: 10,
            ..GaConfig::default()
        })),
        Box::new(quick_pso()),
    ];
    for p in &partitioners {
        let report = pipeline
            .run(&graph, p.as_ref())
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        // conservation: every synaptic event is local or cut
        assert_eq!(
            report.local_events + report.cut_spikes,
            graph.total_synaptic_events(),
            "{}",
            p.name()
        );
        // the NoC delivered exactly the cut traffic (per-synapse mode)
        assert_eq!(report.noc.delivered, report.cut_spikes, "{}", p.name());
        assert!(report.total_energy_pj >= report.global_energy_pj);
        assert!(report.mapping.num_neurons() == graph.num_neurons() as usize);
    }
}

#[test]
fn pso_never_loses_to_the_baselines() {
    // the paper's headline, as an invariant: with baseline seeding the PSO
    // result is at least as good as PACMAN and NEUTRAMS on the objective
    for (layers, width) in [(1u32, 30u32), (2, 24), (3, 16)] {
        let app = Synthetic {
            steps: 300,
            ..Synthetic::new(layers, width)
        };
        let graph = app.spike_graph(9).expect("app simulates");
        let cap = (graph.num_neurons() / 4) + 4;
        let arch = Architecture::custom(5, cap, InterconnectKind::Mesh).unwrap();
        let cfg = PipelineConfig::for_arch(arch);

        let pipeline = MappingPipeline::new(cfg);
        let pso = pipeline.run(&graph, &quick_pso()).unwrap();
        let pacman = pipeline.run(&graph, &PacmanPartitioner::new()).unwrap();
        let neutrams = pipeline.run(&graph, &NeutramsPartitioner::new()).unwrap();
        assert!(
            pso.cut_spikes <= pacman.cut_spikes && pso.cut_spikes <= neutrams.cut_spikes,
            "{layers}x{width}: pso {} vs pacman {} vs neutrams {}",
            pso.cut_spikes,
            pacman.cut_spikes,
            neutrams.cut_spikes
        );
    }
}

#[test]
fn all_interconnects_complete_and_account_energy() {
    let app = HelloWorld {
        steps: 300,
        ..HelloWorld::default()
    };
    let graph = app.spike_graph(5).expect("app simulates");
    for kind in [
        InterconnectKind::Mesh,
        InterconnectKind::Tree { arity: 4 },
        InterconnectKind::Tree { arity: 2 },
        InterconnectKind::Torus,
        InterconnectKind::Star,
    ] {
        let arch = Architecture::custom(4, 36, kind).unwrap();
        let cfg = PipelineConfig::for_arch(arch);
        let r = MappingPipeline::new(cfg)
            .run(&graph, &PacmanPartitioner::new())
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(r.noc.delivered, r.cut_spikes, "{kind:?}");
        if r.cut_spikes > 0 {
            assert!(r.global_energy_pj > 0.0, "{kind:?}");
            assert!(r.noc.max_latency_cycles > 0, "{kind:?}");
        }
    }
}

#[test]
fn shallow_fifo_torus_flow_completes_with_vcs_on_both_engines() {
    // the full application -> partition -> torus flow at realistic
    // router FIFO depth 2 with 2 virtual channels: the engine choice
    // must not change a single reported byte, and the report must carry
    // the per-VC counters (depth-2 single-VC torus routing is the
    // configuration class PR 4 had to paper over with depth-64 FIFOs)
    use neuromap::core::pipeline::TrafficMode;
    use neuromap::noc::config::NocConfig;
    use neuromap::noc::sim::EngineKind;

    let app = Synthetic {
        steps: 300,
        ..Synthetic::new(2, 24)
    };
    let graph = app.spike_graph(7).expect("app simulates");
    let arch = Architecture::custom(9, 8, InterconnectKind::Torus).unwrap();
    let mut cfg = PipelineConfig::for_arch(arch).with_traffic(TrafficMode::PerCrossbar);
    cfg.noc = NocConfig {
        buffer_depth: 2,
        vc_count: 2,
        ..NocConfig::default()
    };
    let oracle_cfg = cfg.clone().with_engine(EngineKind::CycleOracle);
    let part = PacmanPartitioner::new();
    let r_event = MappingPipeline::new(cfg).run(&graph, &part).unwrap();
    let r_oracle = MappingPipeline::new(oracle_cfg).run(&graph, &part).unwrap();
    assert_eq!(r_event, r_oracle);
    assert_eq!(
        r_event.noc.digest().unwrap(),
        r_oracle.noc.digest().unwrap()
    );
    assert_eq!(r_event.noc.per_vc.len(), 2);
    assert!(r_event.noc.delivered > 0, "traffic must cross the torus");
}

#[test]
fn single_crossbar_chip_has_zero_global_traffic() {
    let app = Synthetic {
        steps: 200,
        ..Synthetic::new(1, 20)
    };
    let graph = app.spike_graph(2).expect("app simulates");
    let arch = Architecture::custom(1, 64, InterconnectKind::Star).unwrap();
    let cfg = PipelineConfig::for_arch(arch);
    let r = MappingPipeline::new(cfg)
        .run(&graph, &PacmanPartitioner::new())
        .unwrap();
    assert_eq!(r.cut_spikes, 0);
    assert_eq!(r.noc.delivered, 0);
    assert_eq!(r.global_energy_pj, 0.0);
    assert_eq!(r.local_events, graph.total_synaptic_events());
}

#[test]
fn infeasible_architectures_are_rejected_cleanly() {
    let app = Synthetic {
        steps: 100,
        ..Synthetic::new(1, 30)
    };
    let graph = app.spike_graph(0).expect("app simulates");
    let arch = Architecture::custom(2, 10, InterconnectKind::Mesh).unwrap(); // 20 < 40
    let cfg = PipelineConfig::for_arch(arch);
    let err = MappingPipeline::new(cfg)
        .run(&graph, &PacmanPartitioner::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot fit"), "unexpected error: {msg}");
}
