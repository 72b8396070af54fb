//! What one run reports: named metrics with units, the attempted/failed
//! operation counts, free-form notes, and the benchmark's own spans.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One run's result, printed as the last line of standard output.
#[derive(Default)]
pub struct Record {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (jobs, requests or replayed rows).
    pub attempted: u64,
    /// Attempted operations that failed their check.
    pub failed: u64,
    /// Human-readable facts that qualify the metrics (which percentile a
    /// tail is, how many rounds it rests on, …), printed before the
    /// result line.
    pub notes: Vec<String>,
}

impl Record {
    /// Add a metric. Names are unique within a record; a repeated name
    /// is a bug in the workload.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Count `n` attempted operations, `failed` of which failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// One timed interval of the benchmark's own tracing. Spans of one job
/// (kernel launch, scenario, replayed row) share `id`.
struct Span {
    id: u64,
    name: &'static str,
    what: String,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory during a traced run and written out at its end.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    /// Added to every id of the current pass.
    base: u64,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            base: 0,
        }
    }

    /// Start a pass: each numbers its jobs from 0, so its ids are
    /// offset past every id recorded so far.
    pub fn begin_pass(&mut self) {
        self.base = self.spans.iter().map(|s| s.id + 1).max().unwrap_or(0);
    }

    /// Nanoseconds since the span log started.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record the interval `[start, end]` as span `name` of job `id`.
    pub fn add(&mut self, id: u64, name: &'static str, what: &str, start: Instant, end: Instant) {
        let span = Span {
            id: self.base + id,
            name,
            what: what.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a JSON array to `path` (creating its parent
    /// directory).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                s,
                "{{\"id\": {}, \"span\": \"{}\", \"what\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                sp.id, sp.name, sp.what, sp.start_ns, sp.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("]\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Record::default();
        r.count(3, 0);
        r.metric("op_cost_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_cost_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_record_incorrect() {
        let mut r = Record::default();
        r.count(10, 1);
        assert!(!r.correct());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    #[test]
    fn passes_never_share_a_span_id() {
        let mut sp = Spans::new();
        let t = Instant::now();
        sp.add(0, "job", "a", t, t);
        sp.add(1, "job", "a", t, t);
        sp.begin_pass();
        sp.add(0, "job", "b", t, t);
        let ids: Vec<u64> = sp.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_a_bug() {
        let mut r = Record::default();
        r.metric("setup_s", 1.0, "s");
        r.metric("setup_s", 2.0, "s");
    }
}
