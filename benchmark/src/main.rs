//! `mapbench` — the repository's end-to-end mapping benchmark.
//!
//! ```text
//! mapbench --workload <name> [--seed N] [--seconds S | --iters N] [--trace 0|1]
//! mapbench all [--seed N] [--seconds S | --iters N] [--trace 0|1] [--runs K] [--save FILE]
//! mapbench compare [--require-identical] <a.json> <b.json>
//! mapbench list
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one
//! workload, one pass, one process, and a JSON result as the last line
//! of standard output. `all` starts one such process per workload (and
//! a second per workload for the traced pass), so each workload's
//! `peak_rss_mb` is its own. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod compare;
mod metrics;
mod run;
mod span;
mod stats;
mod workloads;

use metrics::{RunRecord, RunSet};
use run::{Budget, Plan};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, ALL};

/// The harness's error type: a message for the person at the terminal.
pub type Error = Box<dyn std::error::Error>;
/// The harness's result type.
pub type Res<T> = Result<T, Error>;

/// Workload seed when `--seed` is absent.
const DEFAULT_SEED: u64 = 2018;
/// Measuring time of a pass when neither `--seconds` nor `--iters` is
/// given; `BENCHMARK.json`'s `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 22.0;

/// Where spans, layer metrics and run records are written: `out/` next
/// to this package's manifest, inside the checkout the binary was built
/// in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--name value` options after the subcommand, and what is left over.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Res<Self> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if flags.contains(&a.as_str()) {
                args.flags.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.options.push((name.to_owned(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Takes `--name`'s value, parsed; `None` when absent.
    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Res<Option<T>> {
        let Some(at) = self.options.iter().position(|(n, _)| n == name) else {
            return Ok(None);
        };
        let (_, value) = self.options.remove(at);
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name}: cannot read `{value}`").into())
    }

    /// Fails on anything not taken.
    fn finish(self, positional: usize) -> Res<Vec<String>> {
        if let Some((name, _)) = self.options.first() {
            return Err(format!("unknown option --{name}").into());
        }
        if self.positional.len() != positional {
            return Err(format!(
                "expected {positional} file argument(s), got {}",
                self.positional.len()
            )
            .into());
        }
        Ok(self.positional)
    }
}

/// The options one pass and `all` share.
struct PassOptions {
    seed: u64,
    budget: Budget,
    trace: bool,
}

impl PassOptions {
    fn take(args: &mut Args) -> Res<Self> {
        let seed = args.take("seed")?.unwrap_or(DEFAULT_SEED);
        let seconds: Option<f64> = args.take("seconds")?;
        let iters: Option<usize> = args.take("iters")?;
        let budget = match (seconds, iters) {
            (Some(_), Some(_)) => return Err("give --seconds or --iters, not both".into()),
            (_, Some(0)) => return Err("--iters must be at least 1".into()),
            (_, Some(n)) => Budget::Iters(n),
            (Some(s), None) if s.is_finite() && s > 0.0 => Budget::Seconds(s),
            (Some(s), None) => return Err(format!("--seconds: {s} is not a duration").into()),
            (None, None) => Budget::Seconds(DEFAULT_SECONDS),
        };
        let trace = match args.take::<u8>("trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}").into()),
        };
        Ok(Self {
            seed,
            budget,
            trace,
        })
    }

    /// The same options, as arguments for a child process.
    fn to_args(&self) -> Vec<String> {
        let mut v = vec!["--seed".to_owned(), self.seed.to_string()];
        match self.budget {
            Budget::Seconds(s) => v.extend(["--seconds".to_owned(), s.to_string()]),
            Budget::Iters(n) => v.extend(["--iters".to_owned(), n.to_string()]),
        }
        v
    }
}

fn print_record(rec: &RunRecord) {
    println!(
        "mapbench {} pass={} seed={} threads={} result_digest={}",
        rec.workload,
        if rec.traced { "traced" } else { "timed" },
        rec.seed,
        rec.threads,
        rec.result_digest
    );
    for m in &rec.metrics {
        if m.samples > 1 {
            println!(
                "  {:<38} {:>18.6} {:<7} from {} readings (quartile spread {:.2}%)",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.spread * 100.0
            );
        } else {
            println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "  checks: {} attempted, {} failed",
        rec.attempted, rec.failed
    );
}

/// One pass of one workload in this process. The JSON result is the
/// last line printed.
fn one_pass(workload: Workload, opts: &PassOptions) -> Res<RunRecord> {
    let plan = Plan {
        workload,
        seed: opts.seed,
        budget: opts.budget,
    };
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let name = workload.name();
    let rec = if opts.trace {
        let (rec, tracer) = run::traced(&plan)?;
        std::fs::write(
            out.join(format!("trace-{name}.json")),
            tracer.to_chrome_json(name),
        )?;
        std::fs::write(
            out.join(format!("layers-{name}.json")),
            serde_json::to_string_pretty(&rec)?,
        )?;
        rec
    } else {
        let rec = run::timed(&plan)?;
        std::fs::write(
            out.join(format!("result-{name}.json")),
            serde_json::to_string_pretty(&rec)?,
        )?;
        rec
    };
    print_record(&rec);
    println!("{}", rec.driver_line());
    Ok(rec)
}

/// Every workload, each pass in a child process of its own; the
/// children's reports pass through, and each one's record is read back
/// from `out/`.
fn all_workloads(opts: &PassOptions, runs: usize, save: Option<PathBuf>) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut set = RunSet { runs: Vec::new() };
    for round in 0..runs {
        for traced in [false, true] {
            if traced && !(opts.trace && round == 0) {
                continue;
            }
            for w in ALL {
                let status = Command::new(&exe)
                    .args(["--workload", w.name()])
                    .args(opts.to_args())
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .status()?;
                if !status.success() {
                    return Err(format!("{} ({status})", w.name()).into());
                }
                let kind = if traced { "layers" } else { "result" };
                let path = out_dir().join(format!("{kind}-{}.json", w.name()));
                let rec: RunRecord = serde_json::from_str(&std::fs::read_to_string(path)?)?;
                set.runs.push(rec);
            }
        }
    }
    println!("\nend-to-end, seed {} ({} run(s) each):", opts.seed, runs);
    for rec in set.runs.iter().filter(|r| !r.traced) {
        let cells: Vec<String> = rec
            .metrics
            .iter()
            .map(|m| format!("{}={:.6} {}", m.name, m.value, m.unit))
            .collect();
        println!("  {:<26} {}", rec.workload, cells.join("  "));
    }
    if let Some(path) = save {
        std::fs::write(&path, serde_json::to_string_pretty(&set)?)?;
        println!("saved {}", path.display());
    }
    Ok(set.runs.iter().all(|r| r.correct))
}

fn main_inner(raw: &[String]) -> Res<ExitCode> {
    let ok = |good: bool| {
        if good {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match raw.first().map(String::as_str) {
        Some("list") => {
            Args::parse(&raw[1..], &[])?.finish(0)?;
            for w in ALL {
                println!("{}", w.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let flag = "--require-identical";
            let args = Args::parse(&raw[1..], &[flag])?;
            let identical = args.flags.iter().any(|f| f == flag);
            let files = args.finish(2)?;
            let read = |p: &String| -> Res<RunSet> {
                Ok(serde_json::from_str(&std::fs::read_to_string(p)?)
                    .map_err(|e| format!("{p}: {e}"))?)
            };
            let cmp = compare::compare(&read(&files[0])?, &read(&files[1])?)?;
            print!("{}", cmp.render());
            let digest_fault = identical && cmp.any_digest_changed();
            Ok(ok(!cmp.any_worse() && !digest_fault))
        }
        Some("all") => {
            let mut args = Args::parse(&raw[1..], &[])?;
            let opts = PassOptions::take(&mut args)?;
            let runs = args.take("runs")?.unwrap_or(1usize).max(1);
            let save = args.take::<PathBuf>("save")?;
            args.finish(0)?;
            Ok(ok(all_workloads(&opts, runs, save)?))
        }
        _ => {
            let mut args = Args::parse(raw, &[])?;
            let name: String = args
                .take("workload")?
                .ok_or("usage: mapbench --workload <name> | all | compare <a> <b> | list")?;
            let workload = Workload::by_name(&name)
                .ok_or_else(|| format!("unknown workload `{name}` (try `mapbench list`)"))?;
            let opts = PassOptions::take(&mut args)?;
            args.finish(0)?;
            // a result was printed, failed checks included: the caller reads
            // `correct` and `failed` from it
            one_pass(workload, &opts)?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mapbench: {e}");
            ExitCode::from(2)
        }
    }
}
