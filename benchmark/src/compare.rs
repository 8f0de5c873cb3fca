//! `mapbench compare <a.json> <b.json>`: per (workload, end-to-end
//! metric), is set `b` no worse than set `a` by more than the bound?

use crate::metrics::{EndToEnd, RunRecord, RunSet, END_TO_END, HEALTH};
use crate::stats::{median, relative_iqr};
use crate::workloads::ALL;
use crate::Res;
use std::fmt::Write as _;

/// What a row concludes. Lower is better for every end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is lower by more than the spread.
    Better,
    /// No worse than the base by more than the bound.
    Within,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the row shows
    /// neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over the base set's runs.
    pub base: f64,
    /// Median over the new set's runs.
    pub new: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Run-to-run spread as a share of the median: the wider of the two
    /// sets' quartile distances over their runs; with one run in a set,
    /// the quartile distance of that run's own samples (on this box a
    /// run's median moves about as far as its samples scatter: the noise
    /// comes in episodes longer than a run).
    pub spread: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The values of `metric` over a set's timed runs of `workload`, and
/// the spread they show.
fn gather(runs: &[&RunRecord], metric: &str) -> Option<(Vec<f64>, f64)> {
    let found: Vec<_> = runs.iter().filter_map(|r| r.metric(metric)).collect();
    let values: Vec<f64> = found.iter().map(|m| m.value).collect();
    let spread = match found.as_slice() {
        [] => return None,
        [one] => one.spread,
        _ => relative_iqr(&values),
    };
    Some((values, spread))
}

fn judge(m: &EndToEnd, base: &[f64], new: &[f64], spread: f64) -> Verdict {
    let (b, n) = (median(base), median(new));
    if m.bound == 0.0 {
        return match n.partial_cmp(&b) {
            Some(std::cmp::Ordering::Greater) | None => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            Some(std::cmp::Ordering::Equal) => Verdict::Within,
        };
    }
    if spread > m.bound {
        // unresolved, unless every new run reads better than every base run
        let max_new = new.iter().copied().fold(f64::MIN, f64::max);
        let min_base = base.iter().copied().fold(f64::MAX, f64::min);
        return if base.len() > 1 && new.len() > 1 && max_new < min_base {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = n / b - 1.0;
    if change > m.bound {
        Verdict::Worse
    } else if change < -spread {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The comparison of two sets, and whether any workload's result digest
/// differs between them.
pub struct Comparison {
    /// One row per (workload, end-to-end metric), in report order.
    pub rows: Vec<Row>,
    /// `(workload, base digest, new digest)` for every workload.
    pub digests: Vec<(String, String, String)>,
}

impl Comparison {
    /// Whether any row is worse.
    pub fn any_worse(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// Whether any workload's result digest changed.
    pub fn any_digest_changed(&self) -> bool {
        self.digests.iter().any(|(_, a, b)| a != b)
    }

    /// The table `compare` prints. Every ratio is given with its base.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:<22} {:>15} {:>15}  {:<34} {:>6} {:>7}  verdict",
            "workload", "metric", "base", "new", "new/base (base)", "bound", "spread"
        );
        for r in &self.rows {
            let ratio = if r.base == 0.0 {
                format!("-      (base 0 {})", r.unit)
            } else {
                format!("{:.4} (base {:.6} {})", r.new / r.base, r.base, r.unit)
            };
            let _ = writeln!(
                out,
                "{:<26} {:<22} {:>15.6} {:>15.6}  {:<34} {:>5.1}% {:>6.2}%  {}",
                r.workload,
                r.metric,
                r.base,
                r.new,
                ratio,
                r.bound * 100.0,
                r.spread * 100.0,
                r.verdict.name()
            );
        }
        for (w, a, b) in &self.digests {
            let verdict = if a == b { "same" } else { "changed" };
            let _ = writeln!(out, "{w:<26} result_digest          {a} -> {b}  {verdict}");
        }
        out
    }
}

/// Compares the timed runs of two sets.
///
/// # Errors
///
/// When the new set lacks a workload or metric the base set has.
pub fn compare(base: &RunSet, new: &RunSet) -> Res<Comparison> {
    fn timed_of<'s>(set: &'s RunSet, w: &str) -> Vec<&'s RunRecord> {
        set.runs
            .iter()
            .filter(|r| !r.traced && r.workload == w)
            .collect()
    }
    let mut rows = Vec::new();
    let mut digests = Vec::new();
    for w in ALL.map(|w| w.name()) {
        let (a, b) = (timed_of(base, w), timed_of(new, w));
        if a.is_empty() {
            continue;
        }
        if b.is_empty() {
            return Err(format!("the new set has no timed run of {w}").into());
        }
        if a.iter().chain(&b).any(|r| r.seed != a[0].seed) {
            return Err(format!("{w}: the runs compared were not all made on one seed").into());
        }
        for m in END_TO_END.iter().chain(&HEALTH) {
            let (base_values, base_spread) =
                gather(&a, m.name).ok_or_else(|| format!("base set: no {} on {w}", m.name))?;
            let (new_values, new_spread) =
                gather(&b, m.name).ok_or_else(|| format!("new set: no {} on {w}", m.name))?;
            let spread = base_spread.max(new_spread);
            rows.push(Row {
                workload: w.to_owned(),
                metric: m.name,
                unit: m.unit,
                base: median(&base_values),
                new: median(&new_values),
                bound: m.bound,
                spread,
                verdict: judge(m, &base_values, &new_values, spread),
            });
        }
        digests.push((
            w.to_owned(),
            a[0].result_digest.clone(),
            b[0].result_digest.clone(),
        ));
    }
    if rows.is_empty() {
        return Err("the base set has no timed run".into());
    }
    Ok(Comparison { rows, digests })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn run(wall: f64, cut: f64, digest: &str) -> RunRecord {
        let mut metrics: Vec<Metric> = END_TO_END
            .iter()
            .chain(&HEALTH)
            .map(|m| Metric::exact(m.name, m.unit, if m.bound == 0.0 { 0.0 } else { 1.0 }))
            .collect();
        metrics[0] = Metric {
            samples: 9,
            spread: 0.06,
            ..Metric::exact("map_wall_s", "s", wall)
        };
        metrics[3].value = cut;
        RunRecord {
            workload: "hd_tree_paper".into(),
            seed: 1,
            threads: 2,
            traced: false,
            result_digest: digest.into(),
            input_digests: vec![digest.into()],
            attempted: 10,
            failed: 0,
            correct: true,
            metrics,
        }
    }

    fn verdict(c: &Comparison, metric: &str) -> Verdict {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let set = |runs: Vec<RunRecord>| RunSet { runs };
        let base = set(vec![run(1.00, 50.0, "aa")]);

        let same = compare(&base, &set(vec![run(1.01, 50.0, "aa")])).unwrap();
        assert_eq!(verdict(&same, "map_wall_s"), Verdict::Within);
        assert_eq!(verdict(&same, "cut_spikes"), Verdict::Within);
        assert!(!same.any_worse() && !same.any_digest_changed());

        // +15 % on a 10 % bound; a single extra cut spike on an exact one
        let slow = compare(&base, &set(vec![run(1.15, 51.0, "bb")])).unwrap();
        assert_eq!(verdict(&slow, "map_wall_s"), Verdict::Worse);
        assert_eq!(verdict(&slow, "cut_spikes"), Verdict::Worse);
        assert!(slow.any_worse() && slow.any_digest_changed());

        // -10 % beats the 6 % the run's own samples scatter by
        let fast = compare(&base, &set(vec![run(0.90, 49.0, "cc")])).unwrap();
        assert_eq!(verdict(&fast, "map_wall_s"), Verdict::Better);
        assert_eq!(verdict(&fast, "cut_spikes"), Verdict::Better);
        assert!(!fast.any_worse());
        let table = fast.render();
        assert!(table.contains("0.9000 (base 1.000000 s)"), "{table}");

        // runs that scatter wider than the bound resolve nothing ...
        let noisy = set(vec![
            run(0.7, 50.0, "aa"),
            run(1.0, 50.0, "aa"),
            run(1.3, 50.0, "aa"),
        ]);
        let c = compare(
            &noisy,
            &set(vec![run(1.2, 50.0, "aa"), run(1.25, 50.0, "aa")]),
        )
        .unwrap();
        assert_eq!(verdict(&c, "map_wall_s"), Verdict::Unresolved);
        // ... unless every new run beats every base run
        let c = compare(
            &noisy,
            &set(vec![run(0.5, 50.0, "aa"), run(0.6, 50.0, "aa")]),
        )
        .unwrap();
        assert_eq!(verdict(&c, "map_wall_s"), Verdict::Better);

        assert!(compare(&base, &set(vec![])).is_err());
    }
}
