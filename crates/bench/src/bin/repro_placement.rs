//! Placement-stage study: identity vs hop-optimized cluster placement on
//! 64- and 256-crossbar meshes, tori, and 2 × 2-chip hierarchical
//! fabrics (weighted chip-boundary links), plus the joint
//! partition ⇄ placement loop and Steiner multicast trees.
//!
//! The source paper stops after partitioning, implicitly wiring cluster
//! `k` to router `k`; SpiNeMap (Balaji et al.) showed a second placement
//! stage cuts NoC energy and latency. This repro quantifies that on the
//! staged pipeline: the same PSO partition is mapped through both
//! [`PlacementStrategy`] variants and the full interconnect simulation
//! reports hop-weighted packets, energy and latency for each. Cut packets
//! are placement-invariant by construction — only the *distances* change.
//!
//! A second block per scenario compares three hop-priced flows:
//!
//! * `staged`  — CutHops PSO partition, then one placement pass
//!   (exactly the fallback baseline `core::coopt` computes internally);
//! * `joint`   — [`neuromap_core::coopt::co_optimize`], where the placement
//!   optimizer periodically re-prices the distances the swarm searches
//!   under (never worse than `staged` by construction);
//! * `joint+trees` — the same joint mapping re-simulated with
//!   `NocConfig::multicast_trees` on, so shared multicast prefixes
//!   traverse each link once instead of once per destination.
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_placement [--paper]`

use neuromap_apps::synthetic::LargeArch;
use neuromap_bench::{print_table, Scale, SEED};
use neuromap_core::coopt::{co_optimize, CooptConfig};
use neuromap_core::partition::FitnessKind;
use neuromap_core::pipeline::{MappingPipeline, PipelineConfig, PlacementStrategy};
use neuromap_core::place::PlaceConfig;
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_hw::arch::{Architecture, InterconnectKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let (swarm, iters) = match scale {
        Scale::Quick => (8, 4),
        Scale::Paper => (40, 20),
    };
    let scenarios = [
        LargeArch {
            side: 8,
            neurons_per_crossbar: 8,
            synapses_per_neuron: 24,
            fill_percent: 85,
        },
        LargeArch::grid16(),
    ];
    let fabrics = [
        ("mesh", InterconnectKind::Mesh),
        ("torus", InterconnectKind::Torus),
        // multi-chip scale-out: the crossbars split over a 2 × 2 chip
        // grid (each chip a near-square mesh) with latency-4 × width-2
        // boundary links, so the placement stage must also keep chatty
        // clusters off the expensive chip seams
        (
            "hier",
            InterconnectKind::Hier {
                chip_cols: 2,
                chip_rows: 2,
                link_latency: 4,
                link_width: 2,
            },
        ),
    ];

    let mut rows = Vec::new();
    for scenario in scenarios {
        let graph = scenario.spike_graph(SEED)?;
        for (fabric, kind) in fabrics {
            let arch = Architecture::custom(scenario.num_crossbars(), scenario.capacity(), kind)?;
            // AER multicast packetization + an 8.2 MHz-class interconnect:
            // the dense grid traffic needs both to drain inside each
            // timestep (per-synapse unicast at this scale would model a
            // hopelessly underprovisioned chip). Router FIFOs are the
            // realistic shallow depth real neuromorphic NoCs ship
            // (depth 4, not the depth-64 workaround PR 4 needed): on the
            // torus, two virtual channels with dateline assignment keep
            // the wraparound rings deadlock-free under bursty multicast
            // where single-channel dimension-order routing wedges.
            let mut cfg = PipelineConfig::for_arch(arch)
                .with_traffic(neuromap_core::pipeline::TrafficMode::PerCrossbar);
            cfg.noc.cycles_per_step = 8192;
            cfg.noc.buffer_depth = 4;
            if kind == InterconnectKind::Torus {
                cfg.noc.vc_count = 2;
            }
            let pipeline = MappingPipeline::new(cfg);
            let pso = PsoPartitioner::new(PsoConfig {
                swarm_size: swarm,
                iterations: iters,
                fitness: FitnessKind::CutPackets,
                seed_baselines: false,
                polish_passes: 1,
                seed: SEED,
                ..PsoConfig::default()
            });
            // stage 1 once; both placements start from the same partition
            let mapping = pipeline.partition(&graph, &pso)?;
            let optimized =
                pipeline.with_placement(PlacementStrategy::HopOptimized(PlaceConfig::default()));

            let mut identity_hops = 0u64;
            for pipe in [&pipeline, &optimized] {
                let (placed, _, label) = pipe.place(&graph, &mapping)?;
                let report = pipe.evaluate(&graph, placed, "pso", &label)?.report;
                if report.placement == "identity" {
                    identity_hops = report.hop_weighted_packets;
                }
                let delta = if identity_hops == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - report.hop_weighted_packets as f64 / identity_hops as f64)
                };
                rows.push(vec![
                    scenario.name(),
                    fabric.to_owned(),
                    report.placement.clone(),
                    report.hop_weighted_packets.to_string(),
                    format!("{:.2}", report.avg_hops),
                    format!("{:.0}", report.global_energy_pj),
                    format!("{:.1}", report.noc.avg_latency_cycles),
                    format!("{:.1}", report.noc.avg_isi_distortion_cycles),
                    format!("{delta:.1}%"),
                ]);
            }

            // Joint loop + tree routing on the same scenario. `staged`
            // reproduces core::coopt's internal fallback baseline bit for
            // bit (same hop-priced PSO config, same placement optimizer,
            // deterministic seeds), so the three rows isolate (a) the
            // joint re-pricing loop and (b) Steiner multicast trees.
            let coopt_cfg = CooptConfig {
                pso: PsoConfig {
                    swarm_size: swarm,
                    iterations: iters,
                    fitness: FitnessKind::CutHops,
                    seed_baselines: false,
                    polish_passes: 1,
                    seed: SEED,
                    ..PsoConfig::default()
                },
                place: PlaceConfig::default(),
                replace_every: (iters / 4).max(1),
                multilevel: None,
            };
            let staged_map = pipeline.partition(&graph, &PsoPartitioner::new(coopt_cfg.pso))?;
            let (staged_placed, _, _) = optimized.place(&graph, &staged_map)?;
            let joint = co_optimize(
                &pipeline.problem(&graph)?,
                pipeline.distances(),
                pipeline.config().traffic,
                &coopt_cfg,
            )?;
            let mut tree_noc = pipeline.config().noc;
            tree_noc.multicast_trees = true;
            let trees = pipeline.with_noc(tree_noc);
            let mut staged_hops = 0u64;
            for (pipe, mapping, label) in [
                (&pipeline, staged_placed, "staged"),
                (&pipeline, joint.mapping.clone(), "joint"),
                (&trees, joint.mapping, "joint+trees"),
            ] {
                let report = pipe.evaluate(&graph, mapping, "pso", label)?.report;
                if label == "staged" {
                    staged_hops = report.hop_weighted_packets;
                }
                let delta = if staged_hops == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - report.hop_weighted_packets as f64 / staged_hops as f64)
                };
                rows.push(vec![
                    scenario.name(),
                    fabric.to_owned(),
                    report.placement.clone(),
                    report.hop_weighted_packets.to_string(),
                    format!("{:.2}", report.avg_hops),
                    format!("{:.0}", report.global_energy_pj),
                    format!("{:.1}", report.noc.avg_latency_cycles),
                    format!("{:.1}", report.noc.avg_isi_distortion_cycles),
                    format!("{delta:.1}%"),
                ]);
            }
        }
    }
    print_table(
        &[
            "scenario",
            "fabric",
            "placement",
            "hop-wt pkts",
            "avg hops",
            "global pJ",
            "avg lat",
            "ISI dist",
            "hop-wt cut",
        ],
        &rows,
    );
    println!("\nidentity = cluster k on router k (the paper's implicit wiring);");
    println!("hop-optimized = core::place QAP local search + SA restarts on the same partition;");
    println!("staged = CutHops PSO then one placement pass (coopt's fallback baseline);");
    println!("joint = core::coopt partition ⇄ placement loop; joint+trees = the joint");
    println!("mapping with Steiner multicast-tree routing. hop-wt cut is vs identity for");
    println!("the first pair of rows and vs staged for the last three.");
    Ok(())
}
