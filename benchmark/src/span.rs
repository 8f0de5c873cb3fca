//! Spans recorded in the harness around each call into a layer.
//!
//! A [`Tracer`] that is off runs the wrapped call and nothing else — it
//! never reads the clock — so the timed pass and the traced pass share
//! one iteration function and `trace.overhead_ratio` is the cost of
//! the recording itself.

use serde::Serialize;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `noc.sim.simulate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; written out once, at exit.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that only runs the wrapped calls.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run is far shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span's self time: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() - children
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// For each top-level span called `root`: the summed self time of
    /// everything below it, as a share of its duration. Near 1 when the
    /// stages account for the whole iteration; the root's own self time
    /// (harness work between stages) is what is missing.
    pub fn stage_sum_ratios(&self, root: &str) -> Vec<f64> {
        let mut top = vec![usize::MAX; self.spans.len()];
        let mut ratios = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            top[id] = s.parent.map_or(id, |p| top[p]);
        }
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.name != root || s.duration_ns() == 0 {
                continue;
            }
            let below: u64 = (0..self.spans.len())
                .filter(|&k| k != id && top[k] == id)
                .map(|k| self.self_ns(k))
                .sum();
            ratios.push(below as f64 / s.duration_ns() as f64);
        }
        ratios
    }

    /// The spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete event per span, `args` carrying the span
    /// id, its parent and the workload.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        #[derive(Serialize)]
        struct Args {
            id: usize,
            parent: Option<usize>,
            workload: String,
        }
        #[derive(Serialize)]
        #[allow(non_snake_case)]
        struct Event {
            name: String,
            ph: String,
            ts: f64,
            dur: f64,
            pid: u32,
            tid: u32,
            args: Args,
        }
        #[derive(Serialize)]
        #[allow(non_snake_case)]
        struct File {
            traceEvents: Vec<Event>,
            displayTimeUnit: String,
        }
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| Event {
                name: s.name.to_owned(),
                ph: "X".to_owned(),
                ts: s.start_ns as f64 / 1000.0,
                dur: s.duration_ns() as f64 / 1000.0,
                pid: 1,
                tid: 1,
                args: Args {
                    id,
                    parent: s.parent,
                    workload: workload.to_owned(),
                },
            })
            .collect();
        serde_json::to_string(&File {
            traceEvents: events,
            displayTimeUnit: "ms".to_owned(),
        })
        .expect("the vendored serializer cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root 0..100 with children 10..30
    /// and 40..90, the second holding a grandchild 50..60.
    fn fixture() -> Tracer {
        let mut t = Tracer::on();
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        t.spans = vec![
            mk("iteration", 0, 100, None),
            mk("a", 10, 30, Some(0)),
            mk("b", 40, 90, Some(0)),
            mk("b.inner", 50, 60, Some(2)),
            mk("iteration", 100, 200, None),
            mk("a", 100, 150, Some(4)),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_sibling_and_nested_children() {
        let t = fixture();
        assert_eq!(t.self_ns(0), 100 - 20 - 50); // two siblings
        assert_eq!(t.self_ns(1), 20); // leaf
        assert_eq!(t.self_ns(2), 50 - 10); // only the direct child
        assert_eq!(t.self_ns(3), 10);
        assert_eq!(t.self_ns(4), 50);
    }

    #[test]
    fn stage_sum_counts_each_nanosecond_once() {
        let t = fixture();
        // first root: a 20 + b 40 + b.inner 10 = 70 of 100; second: 50 of 100
        assert_eq!(t.stage_sum_ratios("iteration"), vec![0.7, 0.5]);
        assert_eq!(t.durations_s("a"), vec![20.0 * 1e-9, 50.0 * 1e-9]);
    }

    #[test]
    fn recording_nests_and_off_records_nothing() {
        let mut t = Tracer::on();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert!(t.to_chrome_json("w").contains("\"traceEvents\""));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans.is_empty());
    }
}
