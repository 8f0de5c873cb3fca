//! The `BENCH_*.json` ledger: which rows it holds, how they pair into
//! ratios, and the gates the ratios must clear.
//!
//! **Row rule.** End-to-end numbers belong to `mapbench` (`benchmark/`).
//! A row lives here only as one side of a *same-run pair* — baseline and
//! candidate timed back to back in one process, so the 1-core box's
//! throttling cancels out of their ratio — whose scenario is the
//! kernel-level counterpart of a mapbench workload's dominant stage.
//! [`Ledger::publish`] refuses a row that is neither side of a pair.
//!
//! **Gate table.** Each bench has one [`Ledger`] here ([`EVAL`], [`NOC`])
//! whose `gates` list every ratio the bench keeps. [`check`] holds each
//! listed ratio to being present and measured, to `≥ 1.0` when it claims
//! `higher_is_better`, and to its [`Bound`]; a ratio without a gate line
//! fails too, so the table and the file cannot drift apart. A bench calls
//! [`Ledger::publish`] last: the JSON is written first, so a failing run
//! leaves its numbers on disk, and the `Err` names every gate that
//! failed. The gates run on every bench run, `NEUROMAP_BENCH_FAST=1`
//! smoke runs (what `scripts/verify.sh` does) included.

use criterion::Summary;

/// How two rows of one bench group pair up: `(baseline, candidate,
/// higher_is_better)`. A row whose id has the path segment `baseline`
/// pairs with the row that has `candidate` in its place; the ratio's id
/// is the row id without the segment (`swarm_eval/HD/scalar/CutSpikes`
/// and `…/batched/…` → `swarm_eval/HD/CutSpikes`; `engine/x/oracle` and
/// `…/event` → `engine/x`). `higher_is_better: false` marks a pair that
/// records a known cost (joint-loop overhead, tracing on, tree
/// construction): its ratio sits below 1 by design.
pub type Pairing = (&'static str, &'static str, bool);

/// One same-run pair: `speedup` = baseline median / candidate median.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// Ratio id (the row ids minus the pairing segment).
    pub id: String,
    /// Row id of the baseline side.
    pub baseline: String,
    /// Row id of the candidate side.
    pub candidate: String,
    /// Baseline median over candidate median.
    pub speedup: f64,
    /// Copied from the [`Pairing`].
    pub higher_is_better: bool,
}

/// What a gated ratio must satisfy beyond being present and pointing the
/// way its pairing claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Nothing further.
    Present,
    /// `speedup ≥` this floor.
    AtLeast(f64),
    /// The cost factor `1 / speedup` (candidate over baseline) `≤` this
    /// ceiling.
    CostAtMost(f64),
}

/// One line of a bench's gate table: `(ratio id, bound)`.
pub type Gate = (&'static str, Bound);

/// One bench's ledger file, pairing rule and gate table.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// File name at the repo root.
    pub file: &'static str,
    /// How the bench's rows pair.
    pub pairings: &'static [Pairing],
    /// Every ratio the bench keeps, with its bound.
    pub gates: &'static [Gate],
}

/// `benches/eval.rs` → `BENCH_eval.json`: kernel-level explanations of
/// `core.pso` / `core.place` / `core.coopt` / `core.multilevel` on the
/// mapbench workloads.
pub const EVAL: Ledger = Ledger {
    file: "BENCH_eval.json",
    pairings: &[
        ("scalar", "batched", true),
        ("full", "incremental", true),
        ("flat", "vcycle", true),
        // the joint loop re-runs the placement optimizer: a time overhead
        ("staged", "joint", false),
        ("dense", "adjacency", true),
        ("adjacency", "table", true),
        ("per_target", "per_neuron", true),
    ],
    gates: &[
        ("move/HD/CutSpikes", Bound::Present),
        ("move/HD/CutPackets", Bound::Present),
        ("swarm_eval/HD/CutSpikes", Bound::Present),
        ("swarm_eval/HD/CutPackets", Bound::Present),
        // the masked-row velocity sweep against its scalar walk: twelve
        // crossbars leave it little to vectorize, 256 must show it
        ("sweep/HD/step", Bound::Present),
        ("swarm_eval/synth_16x16grid/CutSpikes", Bound::Present),
        ("swarm_eval/synth_16x16grid/CutPackets", Bound::Present),
        ("swarm_eval/synth_16x16grid/CutHops", Bound::Present),
        ("sweep/synth_16x16grid/step", Bound::AtLeast(1.5)),
        // the optimizer's O(deg) pricer against its dense O(C) oracle
        ("placement/synth_16x16grid/sweep", Bound::AtLeast(2.0)),
        // the greedy polish priced from the slot-cost table against the
        // adjacency pricer, table upkeep included
        ("placement/synth_16x16grid/greedy", Bound::AtLeast(1.5)),
        // a neuron's CutHops moves priced against one per-neuron half
        ("refine/synth_16x16grid/CutHops", Bound::AtLeast(2.0)),
        ("coopt/synth_8x8grid/CutHops", Bound::Present),
        // equal-or-better cut (asserted by the bench) at 1024 crossbars
        ("multilevel/synth_32x32grid/CutSpikes", Bound::AtLeast(3.0)),
        // the u16 word-tile kernels past the byte-tile envelope (`CutHops`
        // runs the scalar reference there: no pair)
        ("hier/synth_4chip16x16/CutSpikes", Bound::AtLeast(2.0)),
        ("hier/synth_4chip16x16/CutPackets", Bound::Present),
    ],
};

/// `benches/noc.rs` → `BENCH_noc.json`: the event engine against the
/// cycle oracle, tracing on against off, Steiner trees against
/// per-destination routes.
pub const NOC: Ledger = Ledger {
    file: "BENCH_noc.json",
    pairings: &[
        ("oracle", "event", true),
        // known costs: per-event recording; asking for a Steiner tree per
        // net and walking its paths (lookups are the plan's either way)
        ("off", "on", false),
        ("perdest", "trees", false),
    ],
    gates: &[
        ("engine/sparse_paper64", Bound::Present),
        ("engine/moderate_paper64", Bound::Present),
        // per-port wakes must stay ahead of the sweep on saturated traffic
        ("engine/dense_burst16", Bound::AtLeast(1.5)),
        ("engine/dense_torus64", Bound::Present),
        ("engine/dense_vc4_burst16", Bound::Present),
        ("engine/torus64_vc2_shallow", Bound::Present),
        // the regime the forwarding plan is for: 50 spikes per net
        ("engine/mesh64_repeat_nets", Bound::Present),
        ("engine/torus64_vc4_depth4", Bound::Present),
        ("hier_engine/multichip64", Bound::Present),
        // tracing must stay usable exactly where congestion analysis needs it
        ("trace/dense_burst16", Bound::CostAtMost(3.0)),
        // three spikes per net: the tree is asked for once per net, not
        // per spike (2.9-3.9 when it was)
        ("trees/mesh64_multicast", Bound::CostAtMost(2.5)),
        ("trees/mesh64_repeat_nets", Bound::Present),
    ],
};

/// Every pair `pairings` finds among `rows`, in row order.
pub fn paired_ratios(rows: &[Summary], pairings: &[Pairing]) -> Vec<Ratio> {
    let mut ratios = Vec::new();
    for row in rows {
        let segments: Vec<&str> = row.id.split('/').collect();
        for &(baseline, candidate_segment, higher_is_better) in pairings {
            let Some(at) = segments.iter().position(|&s| s == baseline) else {
                continue;
            };
            let mut candidate = segments.clone();
            candidate[at] = candidate_segment;
            let candidate = candidate.join("/");
            let Some(other) = rows.iter().find(|r| r.id == candidate) else {
                continue;
            };
            let mut id = segments.clone();
            id.remove(at);
            ratios.push(Ratio {
                id: id.join("/"),
                baseline: row.id.clone(),
                candidate,
                speedup: row.median_ns / other.median_ns,
                higher_is_better,
            });
        }
    }
    ratios
}

/// `Ok` when nothing failed, else the failures one per line.
fn verdict(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Checks `ratios` against a gate table.
///
/// # Errors
///
/// One line per failed gate, each naming the ratio id, the bound and the
/// measured value.
pub fn check(ratios: &[Ratio], gates: &[Gate]) -> Result<(), String> {
    let mut failures = Vec::new();
    for &(id, bound) in gates {
        let Some(ratio) = ratios.iter().find(|r| r.id == id) else {
            failures.push(format!("{id}: no such ratio (both sides must be measured)"));
            continue;
        };
        let s = ratio.speedup;
        if !(s.is_finite() && s > 0.0) {
            failures.push(format!("{id}: ratio must be finite and > 0, got {s}"));
            continue;
        }
        if ratio.higher_is_better && s < 1.0 {
            failures.push(format!(
                "{id}: higher_is_better ratio must be >= 1.0, got {s:.3}"
            ));
        }
        match bound {
            Bound::AtLeast(floor) if s < floor => {
                failures.push(format!("{id}: ratio must be >= {floor}, got {s:.3}"));
            }
            Bound::CostAtMost(ceiling) if 1.0 / s > ceiling => {
                failures.push(format!(
                    "{id}: candidate/baseline must be <= {ceiling}, got {:.3}",
                    1.0 / s
                ));
            }
            _ => {}
        }
    }
    for ratio in ratios {
        if !gates.iter().any(|&(id, _)| id == ratio.id) {
            failures.push(format!("{}: ratio has no line in the gate table", ratio.id));
        }
    }
    verdict(failures)
}

/// The ledger file: `ratios` then `benchmarks`, one entry per line.
fn to_json(rows: &[Summary], ratios: &[Ratio]) -> String {
    let ratios: Vec<String> = ratios
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"baseline\": \"{}\", \"candidate\": \"{}\", \
                 \"speedup\": {:.2}, \"higher_is_better\": {}}}",
                r.id, r.baseline, r.candidate, r.speedup, r.higher_is_better
            )
        })
        .collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|s| {
            format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}}}",
                s.id, s.median_ns, s.mean_ns, s.samples
            )
        })
        .collect();
    format!(
        "{{\n  \"ratios\": [\n{}\n  ],\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        ratios.join(",\n"),
        rows.join(",\n")
    )
}

impl Ledger {
    /// Pairs `rows`, writes `<repo root>/<file>`, prints the ratios, then
    /// enforces the row rule and the gate table.
    ///
    /// # Errors
    ///
    /// Names every unpaired row and every failed gate ([`check`]).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn publish(&self, rows: &[Summary]) -> Result<(), String> {
        let ratios = paired_ratios(rows, self.pairings);
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), self.file);
        std::fs::write(&path, to_json(rows, &ratios))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        for r in &ratios {
            println!("ratio {:<44} {:>8.2}x", r.id, r.speedup);
        }
        println!(
            "wrote {} ({} ratios, {} rows)",
            self.file,
            ratios.len(),
            rows.len()
        );
        let paired = |id: &String| {
            ratios
                .iter()
                .any(|r| r.baseline == *id || r.candidate == *id)
        };
        let mut failures: Vec<String> = rows
            .iter()
            .filter(|row| !paired(&row.id))
            .map(|row| format!("{}: row is neither side of a same-run pair", row.id))
            .collect();
        failures.extend(check(&ratios, self.gates).err());
        verdict(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, median_ns: f64) -> Summary {
        Summary {
            id: id.to_owned(),
            median_ns,
            mean_ns: median_ns,
            iters_per_sample: 1,
            samples: 1,
        }
    }

    const SCALAR_BATCHED: Pairing = ("scalar", "batched", true);
    const OFF_ON: Pairing = ("off", "on", false);

    #[test]
    fn rows_pair_by_path_segment() {
        let rows = [
            row("hier/x/scalar/CutHops", 124.0),
            row("hier/x/batched/CutHops", 100.0),
            row("trace/dense/off", 100.0),
            row("trace/dense/on", 131.0),
            row("hier/x/scalar/CutSpikes", 5.0), // candidate never ran
        ];
        let ratios = paired_ratios(&rows, &[SCALAR_BATCHED, OFF_ON]);
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].id, "hier/x/CutHops");
        assert_eq!(ratios[0].candidate, "hier/x/batched/CutHops");
        assert!((ratios[0].speedup - 1.24).abs() < 1e-12 && ratios[0].higher_is_better);
        assert_eq!(ratios[1].id, "trace/dense");
        assert!((1.0 / ratios[1].speedup - 1.31).abs() < 1e-12 && !ratios[1].higher_is_better);
        let json = to_json(&rows, &ratios);
        assert!(json.contains(
            "{\"id\": \"trace/dense\", \"baseline\": \"trace/dense/off\", \"candidate\": \
             \"trace/dense/on\", \"speedup\": 0.76, \"higher_is_better\": false}"
        ));
        assert!(json.contains(
            "{\"id\": \"trace/dense/on\", \"median_ns\": 131.0, \"mean_ns\": 131.0, \"samples\": 1}"
        ));
    }

    /// The ratios committed at `055a7f0`: `(id, speedup, higher_is_better)`
    /// (less `hier/synth_4chip16x16/CutHops`, 1.24: that pair is gone; plus
    /// the two `sweep/*` pairs, `refine/*` and `placement/*/greedy` at the
    /// values they were first committed with).
    const COMMITTED_EVAL: [(&str, f64, bool); 16] = [
        ("move/HD/CutSpikes", 302.92, true),
        ("move/HD/CutPackets", 189.07, true),
        ("swarm_eval/HD/CutSpikes", 19.07, true),
        ("swarm_eval/HD/CutPackets", 1.89, true),
        ("sweep/HD/step", 1.31, true),
        ("swarm_eval/synth_16x16grid/CutSpikes", 12.58, true),
        ("swarm_eval/synth_16x16grid/CutPackets", 4.81, true),
        ("swarm_eval/synth_16x16grid/CutHops", 2.14, true),
        ("sweep/synth_16x16grid/step", 2.89, true),
        ("placement/synth_16x16grid/sweep", 12.57, true),
        ("placement/synth_16x16grid/greedy", 2.67, true),
        ("refine/synth_16x16grid/CutHops", 3.25, true),
        ("coopt/synth_8x8grid/CutHops", 0.33, false),
        ("multilevel/synth_32x32grid/CutSpikes", 4.71, true),
        ("hier/synth_4chip16x16/CutSpikes", 5.71, true),
        ("hier/synth_4chip16x16/CutPackets", 2.56, true),
    ];
    const COMMITTED_NOC: [(&str, f64, bool); 12] = [
        ("engine/sparse_paper64", 6.98, true),
        ("engine/moderate_paper64", 3.29, true),
        ("engine/dense_burst16", 2.40, true),
        ("engine/dense_torus64", 9.62, true),
        ("engine/dense_vc4_burst16", 11.99, true),
        ("engine/torus64_vc2_shallow", 5.07, true),
        ("engine/mesh64_repeat_nets", 2.57, true),
        ("engine/torus64_vc4_depth4", 8.56, true),
        ("hier_engine/multichip64", 4.67, true),
        ("trace/dense_burst16", 0.86, false),
        ("trees/mesh64_multicast", 0.66, false),
        ("trees/mesh64_repeat_nets", 1.05, false),
    ];

    fn ratios(committed: &[(&str, f64, bool)]) -> Vec<Ratio> {
        committed
            .iter()
            .map(|&(id, speedup, higher_is_better)| Ratio {
                id: id.to_owned(),
                baseline: format!("{id}/baseline"),
                candidate: format!("{id}/candidate"),
                speedup,
                higher_is_better,
            })
            .collect()
    }

    #[test]
    fn gate_tables_pass_at_the_committed_values_and_name_what_fails() {
        let eval = ratios(&COMMITTED_EVAL);
        let noc = ratios(&COMMITTED_NOC);
        assert_eq!(check(&eval, EVAL.gates), Ok(()));
        assert_eq!(check(&noc, NOC.gates), Ok(()));

        // (ratio to edit, its new speedup or None to drop it, what the
        // one-line message must say after naming the id)
        type Case = (&'static str, Option<f64>, &'static str);
        let broken = |ratios: &[Ratio], gates, (id, speedup, says): Case| {
            let mut ratios = ratios.to_vec();
            let at = ratios.iter().position(|r| r.id == id).unwrap();
            match speedup {
                Some(s) => ratios[at].speedup = s,
                None => drop(ratios.remove(at)),
            }
            let message = check(&ratios, gates).expect_err(id);
            assert_eq!(message.lines().count(), 1, "{message}");
            assert!(
                message.starts_with(id) && message.contains(says),
                "{message}"
            );
        };
        for case in [
            ("move/HD/CutSpikes", None, "no such ratio"),
            (
                "hier/synth_4chip16x16/CutPackets",
                Some(0.99),
                ">= 1.0, got 0.990",
            ),
            (
                "multilevel/synth_32x32grid/CutSpikes",
                Some(2.99),
                ">= 3, got 2.990",
            ),
            (
                "hier/synth_4chip16x16/CutSpikes",
                Some(1.99),
                ">= 2, got 1.990",
            ),
            (
                "placement/synth_16x16grid/sweep",
                Some(1.99),
                ">= 2, got 1.990",
            ),
            (
                "placement/synth_16x16grid/greedy",
                Some(1.49),
                ">= 1.5, got 1.490",
            ),
            (
                "sweep/synth_16x16grid/step",
                Some(1.49),
                ">= 1.5, got 1.490",
            ),
            (
                "refine/synth_16x16grid/CutHops",
                Some(1.99),
                ">= 2, got 1.990",
            ),
            ("sweep/HD/step", Some(0.99), ">= 1.0, got 0.990"),
            ("coopt/synth_8x8grid/CutHops", Some(0.0), "> 0, got 0"),
        ] {
            broken(&eval, EVAL.gates, case);
        }
        for case in [
            ("trees/mesh64_multicast", None, "no such ratio"),
            ("engine/dense_burst16", Some(1.49), ">= 1.5, got 1.490"),
            ("trace/dense_burst16", Some(1.0 / 3.01), "<= 3, got 3.010"),
            ("trace/dense_burst16", Some(f64::INFINITY), "> 0, got inf"),
        ] {
            broken(&noc, NOC.gates, case);
        }

        // a pair the table does not list fails as well
        let mut extra = noc.clone();
        extra.push(Ratio {
            id: "engine/new_point".to_owned(),
            ..noc[0].clone()
        });
        let message = check(&extra, NOC.gates).unwrap_err();
        assert!(message.starts_with("engine/new_point: ratio has no line"));
    }
}
