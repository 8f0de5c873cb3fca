//! Metric names, units and bounds, and the records runs are saved as.

use serde::{Deserialize, Serialize, Value};

/// One end-to-end metric. Lower is better for all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the base by which `compare` lets it get worse between
    /// two sets of one seed. The simulated quality metrics repeat
    /// exactly, so theirs is 0. (`BENCHMARK.json` fixes bounds of its
    /// own, for runs on ten different seeds; see the README.)
    pub bound: f64,
}

/// The end-to-end metrics of the driver's result line (`--trace 0`), in
/// print order.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "map_wall_s",
        unit: "s",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
    },
    EndToEnd {
        name: "cut_spikes",
        unit: "count",
        bound: 0.0,
    },
    EndToEnd {
        name: "hop_weighted_packets",
        unit: "count",
        bound: 0.0,
    },
    EndToEnd {
        name: "global_energy_pj",
        unit: "pJ",
        bound: 0.0,
    },
    EndToEnd {
        name: "avg_latency_cycles",
        unit: "cycles",
        bound: 0.0,
    },
    EndToEnd {
        name: "isi_distortion_cycles",
        unit: "cycles",
        bound: 0.0,
    },
];

/// The two end-to-end metrics that are 0 on every healthy run. The
/// driver's result line carries them as `failed`/`attempted` and
/// `correct` (it wants metrics that are never 0); reports, saved sets
/// and `compare` carry them by name.
pub const HEALTH: [EndToEnd; 2] = [
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        bound: 0.0,
    },
    EndToEnd {
        name: "result_digest_changed",
        unit: "0/1",
        bound: 0.0,
    },
];

/// What the timed pass reports beside the end-to-end metrics, for the
/// reader only: `map_wall_s` and `setup_s` are scaled to a nominal
/// machine speed (see `calibrate`); these are the wall-clock readings
/// they were scaled from, the plain median of every timed iteration,
/// and the calibration's lower quartile.
pub const RAW: [(&str, &str); 4] = [
    ("map_wall_raw_s", "s"),
    ("map_wall_median_s", "s"),
    ("setup_raw_s", "s"),
    ("calibration_s", "s"),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// The per-layer metrics of the traced pass (`--trace 1`), as
/// `(name, unit, better)`. Every workload reports every one; a layer
/// the workload bypasses reads 0. `better` is the direction
/// `BENCHMARK.json` records; for sizes of the input it means nothing.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("snn.simulate_s", "s", LOWER),
    ("snn.steps", "count", LOWER),
    ("snn.spikes", "count", LOWER),
    ("input.generate_s", "s", LOWER),
    ("noc.topology.build_s", "s", LOWER),
    ("noc.topology.routers", "count", LOWER),
    ("core.graph.extract_s", "s", LOWER),
    ("core.graph.neurons", "count", LOWER),
    ("core.graph.synapses", "count", LOWER),
    ("core.graph.spike_events", "count", LOWER),
    ("core.pso.partition_s", "s", LOWER),
    ("core.pso.evaluations", "count", LOWER),
    ("core.pso.ns_per_evaluation", "ns", LOWER),
    ("core.pso.converged_at", "count", LOWER),
    ("core.pso.best_cost", "count", LOWER),
    ("core.eval.kernel_bits", "bits", HIGHER),
    ("core.multilevel.vcycle_s", "s", LOWER),
    ("core.multilevel.levels", "count", LOWER),
    ("core.multilevel.coarsest_nodes", "count", LOWER),
    ("core.multilevel.refine_proposed", "count", LOWER),
    ("core.multilevel.refine_accepted", "count", HIGHER),
    ("core.multilevel.refine_accept_ratio", "ratio", HIGHER),
    ("core.multilevel.level_wall_s_sum", "s", LOWER),
    ("core.multilevel.used_projection", "0/1", LOWER),
    ("core.multilevel.cost", "count", LOWER),
    ("core.coopt.co_optimize_s", "s", LOWER),
    ("core.coopt.staged_cost", "count", LOWER),
    ("core.coopt.joint_cost", "count", LOWER),
    ("core.coopt.used_joint", "0/1", HIGHER),
    ("core.coopt.gain_ratio", "ratio", HIGHER),
    ("core.coopt.trace_len", "count", LOWER),
    ("core.place.optimize_s", "s", LOWER),
    ("core.place.traffic_matrix_s", "s", LOWER),
    ("core.place.identity_cost", "count", LOWER),
    ("core.place.optimized_cost", "count", LOWER),
    ("core.place.gain_ratio", "ratio", HIGHER),
    ("core.pipeline.packetize_s", "s", LOWER),
    ("core.pipeline.flows", "count", LOWER),
    ("core.pipeline.unicast_packets", "count", LOWER),
    ("core.pipeline.hop_metrics_s", "s", LOWER),
    ("core.pipeline.report_s", "s", LOWER),
    ("noc.sim.simulate_s", "s", LOWER),
    ("noc.sim.packets_injected", "count", LOWER),
    ("noc.sim.deliveries", "count", LOWER),
    ("noc.sim.router_traversals", "count", LOWER),
    ("noc.sim.link_flits", "count", LOWER),
    ("noc.sim.buffer_flits", "count", LOWER),
    ("noc.sim.total_cycles", "cycles", LOWER),
    ("noc.sim.host_ns_per_link_flit", "ns", LOWER),
    ("noc.sim.sim_cycles_per_host_s", "1/s", HIGHER),
    ("noc.sched.wake_cycles", "count", LOWER),
    ("noc.sched.port_wakes", "count", LOWER),
    ("noc.sched.router_visits", "count", LOWER),
    ("noc.sched.head_updates", "count", LOWER),
    ("noc.sched.peak_ready", "count", LOWER),
    ("noc.sched.attended_ratio", "ratio", LOWER),
    ("noc.vc.arb_losses", "count", LOWER),
    ("noc.stats.max_latency_cycles", "cycles", LOWER),
    ("noc.stats.disorder_fraction", "ratio", LOWER),
    ("noc.stats.throughput_aer_per_ms", "1/ms", HIGHER),
    ("noc.oracle.simulate_s", "s", LOWER),
    ("noc.oracle.digest_match", "0/1", HIGHER),
    ("trace.stage_sum_ratio", "ratio", HIGHER),
    ("trace.overhead_ratio", "ratio", LOWER),
    ("failed_share", "ratio", LOWER),
    ("result_digest_changed", "0/1", LOWER),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value: for a host time a summary of `samples` readings (the
    /// README says which), for a count the value itself.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Readings behind a host time (1 for a count).
    pub samples: u32,
    /// Distance between the samples' quartiles as a share of their
    /// median (0 for a count).
    pub spread: f64,
}

impl Metric {
    /// A count, or any value that is not a median of samples.
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            samples: 1,
            spread: 0.0,
        }
    }

    /// The median of `samples`, with their count and spread.
    pub fn median_of(name: &str, unit: &str, samples: &[f64]) -> Self {
        Self::summary_of(name, unit, crate::stats::median(samples), samples)
    }

    /// `value`, a summary of `samples` other than their median, with
    /// their count and spread.
    pub fn summary_of(name: &str, unit: &str, value: f64, samples: &[f64]) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            samples: u32::try_from(samples.len()).expect("a run holds few samples"),
            spread: crate::stats::relative_iqr(samples),
        }
    }
}

/// One run of one workload, as saved to `out/` and into set files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Workload seed the inputs were made from.
    pub seed: u64,
    /// Threads every optimizer ran with.
    pub threads: u32,
    /// Whether this is the traced pass (per-layer metrics) or the timed
    /// pass (end-to-end metrics).
    pub traced: bool,
    /// FNV-1a over `input_digests`, in hex: one number to compare two
    /// commits by.
    pub result_digest: String,
    /// Result digest of each input's first iteration, in hex (one input
    /// in the traced pass; it is the timed pass's first).
    pub input_digests: Vec<String>,
    /// Checks made (see the README for what counts as one).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// The metrics, in definition order.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line the driver reads: `correct`, `attempted`, `failed`
    /// and `metrics` as an object of `{value, unit}` keyed by name. The
    /// health metrics are left to `failed` and `correct` in the timed
    /// pass (see [`HEALTH`]).
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| self.traced || END_TO_END.iter().any(|e| e.name == m.name))
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), m.value.to_value()),
                        ("unit".to_owned(), m.unit.to_value()),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_owned(), self.correct.to_value()),
            ("attempted".to_owned(), self.attempted.to_value()),
            ("failed".to_owned(), self.failed.to_value()),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&Raw(line)).expect("the vendored serializer cannot fail")
    }
}

/// A value tree that serializes as itself.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// A set of runs: what `mapbench all --save` writes and `compare`
/// reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSet {
    /// Every run, timed and traced, in the order made.
    pub runs: Vec<RunRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::workloads::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for h in HEALTH {
            assert!(PER_LAYER.iter().any(|m| m.0 == h.name));
        }
    }

    /// `/BENCHMARK.json` is what the driver reads; it must name exactly
    /// what this harness emits.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        #[derive(Deserialize)]
        struct Workload {
            name: String,
            why: String,
        }
        #[derive(Deserialize)]
        struct Declared {
            name: String,
            unit: String,
            better: String,
            #[serde(default)]
            bound: f64,
        }
        #[derive(Deserialize)]
        struct File {
            command: Vec<String>,
            paths: Vec<String>,
            run_seconds: u32,
            workloads: Vec<Workload>,
            end_to_end: Vec<Declared>,
            per_layer: Vec<Declared>,
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file: File = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();

        assert_eq!(file.paths, ["benchmark"]);
        assert!(file.command.contains(&"benchmark/Cargo.toml".to_owned()));
        assert_eq!(f64::from(file.run_seconds), crate::DEFAULT_SECONDS);
        let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::workloads::ALL.map(|w| w.name()));
        assert!(file
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200));

        let declared: Vec<(&str, &str)> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let emitted: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(declared, emitted);
        for m in &file.end_to_end {
            assert_eq!(m.better, "lower");
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = file
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(file.end_to_end.iter().all(|m| m.bound <= setup.bound));

        let declared: Vec<(&str, &str, &str)> = file
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        assert_eq!(declared, PER_LAYER);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut record = RunRecord {
            workload: "w".into(),
            seed: 1,
            threads: 2,
            traced: false,
            result_digest: "00".into(),
            input_digests: vec!["00".into()],
            attempted: 5,
            failed: 0,
            correct: true,
            metrics: vec![
                Metric::median_of("map_wall_s", "s", &[1.0, 1.5, 3.0]),
                Metric::exact("failed_share", "ratio", 0.0),
            ],
        };
        assert_eq!(
            record.driver_line(),
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\
             \"metrics\":{\"map_wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        record.traced = true;
        assert!(record.driver_line().contains("\"failed_share\""));
        let set = RunSet { runs: vec![record] };
        let saved = serde_json::to_string_pretty(&set).unwrap();
        assert_eq!(serde_json::from_str::<RunSet>(&saved).unwrap(), set);
    }
}
