//! Runs every reproduction binary in sequence (Fig. 5, Table II, Fig. 6,
//! Fig. 7, plus the placement-stage study). Output is the full
//! experimental record for EXPERIMENTS.md.
//!
//! Run: `cargo run --release -p neuromap-bench --bin repro_all [--paper]`

use std::process::Command;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper = std::env::args().any(|a| a == "--paper");
    let bins = [
        "repro_fig5",
        "repro_table2",
        "repro_fig6",
        "repro_fig7",
        "repro_placement",
    ];
    let exe = std::env::current_exe()?;
    let dir = exe.parent().expect("binary has a parent directory");
    for bin in bins {
        let path = dir.join(bin);
        let mut cmd = Command::new(&path);
        if paper {
            cmd.arg("--paper");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {bin} ({}): {e}", path.display()))?;
        if !status.success() {
            return Err(format!("{bin} failed with {status}").into());
        }
        println!("\n{}\n", "=".repeat(78));
    }
    Ok(())
}
