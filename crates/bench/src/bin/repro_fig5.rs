//! Reproduces Fig. 5 of Das et al. (DATE 2018): normalized energy
//! consumption on the global synapse interconnect for NEUTRAMS, PACMAN and
//! the proposed PSO, across 8 synthetic and 4 realistic applications.
//!
//! Paper shapes to check:
//! * PSO ≤ PACMAN ≤ NEUTRAMS (≈1.0) on (almost) every workload;
//! * gains shrink as synapse density grows (4x200 ≈ comparable, sparse
//!   1x200 > 40% improvement);
//! * realistic apps: PSO saves ~38% vs NEUTRAMS / ~33% vs PACMAN on
//!   average.
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_fig5 [--paper]`

use neuromap_bench::{
    config_for, fig5_partitioners, print_table, realistic_graphs, synthetic_graphs, Scale,
};
use neuromap_core::MappingPipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("# Fig. 5 — normalized energy on the global synapse interconnect ({scale:?} scale)\n");

    let mut workloads = synthetic_graphs(scale)?;
    workloads.extend(realistic_graphs(scale)?);

    let mut rows = Vec::new();
    let mut improvements_vs_neutrams = Vec::new();
    let mut improvements_vs_pacman = Vec::new();
    let mut realistic_gain_neutrams = Vec::new();
    let mut realistic_gain_pacman = Vec::new();

    for (name, graph) in &workloads {
        let pipeline = MappingPipeline::new(config_for(graph.num_neurons()));
        let mut energies = Vec::new();
        for part in fig5_partitioners(scale) {
            let report = pipeline.run(graph, part.as_ref())?;
            energies.push(report.global_energy_pj);
        }
        let base = energies[0].max(1e-12); // NEUTRAMS
        let norm: Vec<f64> = energies.iter().map(|e| e / base).collect();
        let is_realistic = !name.starts_with("synth");
        let gain_n = 1.0 - norm[2];
        let gain_p = if energies[1] > 0.0 {
            1.0 - energies[2] / energies[1]
        } else {
            0.0
        };
        improvements_vs_neutrams.push(gain_n);
        improvements_vs_pacman.push(gain_p);
        if is_realistic {
            realistic_gain_neutrams.push(gain_n);
            realistic_gain_pacman.push(gain_p);
        }
        rows.push(vec![
            name.clone(),
            format!("{:.3}", norm[0]),
            format!("{:.3}", norm[1]),
            format!("{:.3}", norm[2]),
            format!("{:.1}%", gain_n * 100.0),
            format!("{:.1}%", gain_p * 100.0),
        ]);
    }

    print_table(
        &[
            "workload",
            "NEUTRAMS",
            "PACMAN",
            "PSO",
            "PSO vs NEUTRAMS",
            "PSO vs PACMAN",
        ],
        &rows,
    );

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 * 100.0;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min) * 100.0;
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max) * 100.0;

    println!();
    println!(
        "all workloads: PSO vs NEUTRAMS {:.1}%..{:.1}% (avg {:.1}%) | paper: 2.4%..48.7% (avg 20.2%)",
        min(&improvements_vs_neutrams),
        max(&improvements_vs_neutrams),
        avg(&improvements_vs_neutrams),
    );
    println!(
        "all workloads: PSO vs PACMAN   {:.1}%..{:.1}% (avg {:.1}%) | paper: 1.5%..45.4% (avg 17.2%)",
        min(&improvements_vs_pacman),
        max(&improvements_vs_pacman),
        avg(&improvements_vs_pacman),
    );
    println!(
        "realistic:     PSO vs NEUTRAMS avg {:.1}% | paper: 27.0%..52.1% (avg 38%)",
        avg(&realistic_gain_neutrams),
    );
    println!(
        "realistic:     PSO vs PACMAN   avg {:.1}% | paper: 21.2%..48.7% (avg 33%)",
        avg(&realistic_gain_pacman),
    );
    Ok(())
}
