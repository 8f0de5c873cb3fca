//! Reproduces Table II of Das et al. (DATE 2018): SNN metrics on the
//! global synapse interconnect — ISI distortion, spike disorder count,
//! throughput and maximum latency — for PACMAN vs the proposed PSO on the
//! four realistic applications.
//!
//! Paper shapes to check:
//! * PSO lowers ISI distortion (paper: −37% on average);
//! * PSO lowers disorder count (paper: −63% on average);
//! * PSO lowers max latency (paper: −22%, range 2–35%);
//! * PACMAN's *throughput* is usually higher — it simply pushes more
//!   spikes through the interconnect;
//! * §V-B: for the temporally coded HE app, lower ISI distortion means
//!   higher estimation accuracy (paper: 20% distortion ↓ ⇒ >5% accuracy ↑).
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_table2 [--paper]`

use neuromap_apps::heartbeat::HeartbeatEstimation;
use neuromap_bench::{config_for, print_table, realistic_graphs, Scale, SEED};
use neuromap_core::baselines::PacmanPartitioner;
use neuromap_core::partition::{PartitionProblem, Partitioner};
use neuromap_core::pipeline::{MappingPipeline, PipelineConfig, Report};
use neuromap_core::pso::PsoPartitioner;
use neuromap_core::SpikeGraph;
use neuromap_noc::stats::{temporal_fidelity, Delivery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!(
        "# Table II — SNN metric evaluation on the global synapse interconnect ({scale:?} scale)\n"
    );

    let graphs = realistic_graphs(scale)?;
    let mut rows = Vec::new();
    let mut isi_gains = Vec::new();
    let mut disorder_gains = Vec::new();
    let mut latency_gains = Vec::new();
    let mut he_data: Option<[(Report, Vec<Delivery>); 2]> = None;

    for (name, graph) in &graphs {
        let cfg = config_for(graph.num_neurons());
        let (pacman, pacman_log) = run(graph, &PacmanPartitioner::new(), &cfg)?;
        let pso_part = PsoPartitioner::new(scale.pso(0xF165));
        let (pso, pso_log) = run(graph, &pso_part, &cfg)?;

        let gain = |a: f64, b: f64| if a > 0.0 { (1.0 - b / a) * 100.0 } else { 0.0 };
        isi_gains.push(gain(
            pacman.noc.avg_isi_distortion_cycles,
            pso.noc.avg_isi_distortion_cycles,
        ));
        disorder_gains.push(gain(
            pacman.noc.disorder_fraction,
            pso.noc.disorder_fraction,
        ));
        latency_gains.push(gain(
            pacman.noc.max_latency_cycles as f64,
            pso.noc.max_latency_cycles as f64,
        ));

        for (label, r) in [("PACMAN", &pacman), ("Proposed", &pso)] {
            rows.push(vec![
                name.clone(),
                label.to_owned(),
                format!("{:.1}", r.noc.avg_isi_distortion_cycles),
                format!("{:.3}%", r.noc.disorder_fraction * 100.0),
                format!("{:.2}", r.noc.throughput_aer_per_ms),
                format!("{}", r.noc.max_latency_cycles),
            ]);
        }
        if name == "HE" {
            he_data = Some([(pacman, pacman_log), (pso, pso_log)]);
        }
    }

    print_table(
        &[
            "app",
            "mapping",
            "ISI dist (cyc)",
            "disorder",
            "thrpt (AER/ms)",
            "max latency (cyc)",
        ],
        &rows,
    );

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!();
    println!(
        "avg ISI-distortion reduction: {:.1}% | paper: 37%",
        avg(&isi_gains)
    );
    println!(
        "avg disorder reduction:       {:.1}% | paper: 63%",
        avg(&disorder_gains)
    );
    println!(
        "avg max-latency reduction:    {:.1}% | paper: 22% (2%..35%)",
        avg(&latency_gains)
    );

    // §V-B: temporal-coding sensitivity. CxQuad-class chips are always-on,
    // ultra-low-power parts whose interconnect runs barely faster than the
    // neural dynamics; sweep the interconnect clock down into that regime
    // and decode the R-R interval from the spike streams *as they arrive*.
    // Congestion jitter (which the PSO mapping reduces) then costs real
    // estimation accuracy.
    if let Some([(pacman, _), (pso, _)]) = he_data {
        println!("\n## §V-B — heartbeat-estimation accuracy under ISI distortion\n");
        let app = HeartbeatEstimation {
            duration_ms: scale.sim_ms().max(3000),
            ..HeartbeatEstimation::default()
        };
        let (ecg, _) = app.encoded_input(SEED);
        let truth = ecg.mean_rr();
        let graph = graphs
            .iter()
            .find(|(n, _)| n == "HE")
            .map(|(_, g)| g)
            .expect("HE graph present");

        let mut vb_rows = Vec::new();
        for cycles_per_step in [64u64, 128, 256, 1024] {
            let mut cfg = config_for(graph.num_neurons());
            cfg.noc.cycles_per_step = cycles_per_step;
            let pipeline = MappingPipeline::new(cfg);
            let mut line = vec![format!("{cycles_per_step}")];
            for (label, mapping) in [("PACMAN", &pacman.mapping), ("PSO", &pso.mapping)] {
                let (evaluation, log) =
                    pipeline.evaluate_logged(graph, mapping.clone(), label, "identity")?;
                let r = evaluation.report;
                let acc = temporal_fidelity(&log, cycles_per_step);
                line.push(format!("{:.1}", r.noc.avg_isi_distortion_cycles));
                line.push(format!("{:.1}%", acc * 100.0));
            }
            vb_rows.push(line);
        }
        print_table(
            &[
                "cycles/ms",
                "PACMAN ISI (cyc)",
                "PACMAN fidelity",
                "PSO ISI (cyc)",
                "PSO fidelity",
            ],
            &vb_rows,
        );
        println!(
            "\nfidelity = fraction of beat-scale (300–2000 ms) intervals delivered within ±3% of the sent interval"
        );
        println!("truth RR {truth:.0} ms | paper: 20% ISI-distortion reduction improves estimation accuracy by >5%");
    }
    Ok(())
}

fn run(
    graph: &SpikeGraph,
    part: &dyn Partitioner,
    cfg: &PipelineConfig,
) -> Result<(Report, Vec<Delivery>), Box<dyn std::error::Error>> {
    let problem = PartitionProblem::new(
        graph,
        cfg.arch.num_crossbars(),
        cfg.arch.neurons_per_crossbar(),
    )?;
    let mapping = part.partition(&problem)?;
    let (evaluation, log) = MappingPipeline::new(cfg.clone()).evaluate_logged(
        graph,
        mapping,
        part.name(),
        "identity",
    )?;
    Ok((evaluation.report, log))
}
