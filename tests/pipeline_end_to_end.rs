//! End-to-end integration: the full Figure-4 flow (application → SNN
//! simulation → spike graph → partitioner → interconnect simulation)
//! across applications, partitioners, and architectures.

use neuromap::apps::{hello_world::HelloWorld, synthetic::Synthetic, App};
use neuromap::core::baselines::{NeutramsPartitioner, PacmanPartitioner};
use neuromap::core::partition::{FitnessKind, Partitioner};
use neuromap::core::pipeline::Evaluation;
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig, SpikeGraph};
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::noc::config::NocConfig;
use neuromap::snn::spikes::SpikeTrain;

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

#[test]
fn interconnect_parameters_move_the_report_the_way_the_router_model_says() {
    // the Noxim configurables the paper quotes — buffer size, packet size,
    // clock ratio, virtual channels — walked for a fixed mapping the way a
    // caller sweeps them: one pipeline per architecture, one
    // `with_noc(..).evaluate(..)` per point
    let pipeline_on = |crossbars, capacity, kind| {
        MappingPipeline::new(PipelineConfig::for_arch(
            Architecture::custom(crossbars, capacity, kind).unwrap(),
        ))
    };
    // a bursty two-layer net, packed sequentially onto four crossbars
    let mut synapses = Vec::new();
    for a in 0..8u32 {
        for b in 8..16u32 {
            synapses.push((a, b));
        }
    }
    let trains = (0..16).map(|i| {
        let times = if i < 8 {
            (0..20).map(|k| k * 10).collect()
        } else {
            vec![]
        };
        SpikeTrain::from_times(times)
    });
    let bursty = SpikeGraph::from_trains(16, synapses, trains.collect()).unwrap();
    let small_mesh = pipeline_on(4, 6, InterconnectKind::Mesh);
    let small_torus = pipeline_on(4, 6, InterconnectKind::Torus);
    let packed = small_mesh
        .partition(&bursty, &PacmanPartitioner::new())
        .unwrap();
    // ring-of-rings (local chains plus long skips), PSO-mapped onto a full
    // 16 × 16 mesh: the multi-word batched evaluator feeds the simulator
    let n = 320u32;
    let mut synapses = Vec::new();
    for i in 0..n {
        synapses.push((i, (i + 1) % n));
        if i % 5 == 0 {
            synapses.push((i, (i + 97) % n));
        }
    }
    let trains =
        (0..n).map(|i| SpikeTrain::from_times((0..3).map(|k| k * 80 + (i % 11)).collect()));
    let rings = SpikeGraph::from_trains(n, synapses, trains.collect()).unwrap();
    let big_mesh = pipeline_on(256, 2, InterconnectKind::Mesh);
    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 6,
        iterations: 3,
        fitness: FitnessKind::CutPackets,
        polish_passes: 1,
        ..PsoConfig::default()
    });
    let swarmed = big_mesh.partition(&rings, &pso).unwrap();

    let base = NocConfig::default();
    let depth = |buffer_depth| NocConfig {
        buffer_depth,
        ..base
    };
    fn conserved(points: &[Evaluation]) {
        let delivered = points[0].report.noc.delivered;
        assert!(delivered > 0, "traffic must actually cross the fabric");
        assert!(points.iter().all(|p| p.report.noc.delivered == delivered));
    }
    type Check = fn(&[Evaluation]);
    let studies: [(
        &str,
        &MappingPipeline,
        &SpikeGraph,
        _,
        Vec<NocConfig>,
        Check,
    ); 6] = [
        (
            "deeper buffers do not increase latency",
            &small_mesh,
            &bursty,
            &packed,
            vec![depth(1), depth(4), depth(16)],
            |p| {
                conserved(p);
                // backpressure stalls at depth 1 must not beat depth 16
                let (shallow, deep) = (&p[0].report.noc, &p[2].report.noc);
                assert!(
                    deep.avg_latency_cycles <= shallow.avg_latency_cycles + 1e-9,
                    "{} vs {}",
                    deep.avg_latency_cycles,
                    shallow.avg_latency_cycles
                );
            },
        ),
        (
            "deep single-VC buffers vs shallow dual-VC buffers on a torus",
            &small_torus,
            &bursty,
            &packed,
            vec![
                NocConfig {
                    vc_count: 1,
                    ..depth(64)
                },
                NocConfig {
                    vc_count: 2,
                    ..depth(2)
                },
            ],
            conserved,
        ),
        (
            "bigger packets cost more link energy",
            &small_mesh,
            &bursty,
            &packed,
            [1, 4]
                .map(|flits_per_packet| NocConfig {
                    flits_per_packet,
                    ..base
                })
                .to_vec(),
            |p| {
                let (one, four) = (&p[0].report.noc, &p[1].report.noc);
                assert!(four.counters.link_flits > one.counters.link_flits);
                assert!(four.global_energy_pj > one.global_energy_pj);
            },
        ),
        (
            "a congested clock distorts at least as much",
            &small_mesh,
            &bursty,
            &packed,
            [16, 4096]
                .map(|cycles_per_step| NocConfig {
                    cycles_per_step,
                    ..base
                })
                .to_vec(),
            |p| {
                let (slow, fast) = (&p[0].report.noc, &p[1].report.noc);
                assert!(
                    slow.avg_isi_distortion_cycles >= fast.avg_isi_distortion_cycles,
                    "{} vs {}",
                    slow.avg_isi_distortion_cycles,
                    fast.avg_isi_distortion_cycles
                );
            },
        ),
        (
            "tracing spots the saturated lanes without perturbing the statistics",
            &small_mesh,
            &bursty,
            &packed,
            vec![
                depth(1),
                NocConfig {
                    trace: true,
                    ..depth(1)
                },
            ],
            |p| {
                assert!(p[0].trace.is_none());
                let trace = p[1].trace.as_ref().expect("traced point keeps its events");
                // the bursty net saturates depth-1 FIFOs
                assert!(!trace.spot_congestion(8, 3).lanes.is_empty());
                assert_eq!(
                    p[1].report.noc.digest().unwrap(),
                    p[0].report.noc.digest().unwrap()
                );
            },
        ),
        (
            "a PSO mapping stays conservation-clean at 256 routers",
            &big_mesh,
            &rings,
            &swarmed,
            vec![depth(1), depth(4)],
            conserved,
        ),
    ];
    for (what, pipeline, graph, mapping, settings, check) in studies {
        println!("{what}");
        let points: Vec<Evaluation> = settings
            .into_iter()
            .map(|noc| {
                pipeline
                    .with_noc(noc)
                    .evaluate(graph, mapping.clone(), "sweep", "identity")
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
            })
            .collect();
        check(&points);
    }
}
