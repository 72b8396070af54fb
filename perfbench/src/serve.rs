//! The `serve-open` workload: `run_scenario` on the native backend in an
//! open loop (one pacer thread, log-normal inter-arrival times, the
//! default native mix), at two fixed rates and in a search for the
//! highest rate that meets the latency limit.
//!
//! Latency is measured from each request's *due* time, taken from the
//! public `build_schedule`, so a pacer stall before a submit counts
//! against the requests it delays.

use std::time::Instant;

use hbp_core::{Backend, Config, Policy};
use hbp_serve::{
    build_schedule, default_mix, run_scenario, LoadMode, ScenarioReport, ScenarioSpec,
};

use crate::record::{Record, Spans};
use crate::stats::{late_ns, latency_from_due_ns, median, percentile, sorted};

/// The fixed open-loop rates (requests per second) and their metric
/// suffixes.
const RATES: [(&str, f64); 2] = [("r1000", 1000.0), ("r2500", 2500.0)];

/// The p90 latency limit (from due) a rate must meet, microseconds.
const LIMIT_US: f64 = 1000.0;

/// Requests due in the first 200 ms of a scenario are warm-up and are
/// left out of every latency figure.
const WARMUP_NS: u64 = 200_000_000;

/// The max-rate search stops when its bracket is this tight.
const RESOLUTION: f64 = 1.05;

/// The search never probes above this rate.
const RATE_CEILING: f64 = 64_000.0;

/// How many times the workload is set up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Share of a traced run's seconds given to each fixed rate; the rest
/// goes to the max-rate search (about six probes).
const SHARE_RATE: f64 = 0.35;
const SEARCH_PROBES: f64 = 6.0;

/// The shortest scenario served: long enough that requests remain after
/// the warm-up.
const MIN_SCENARIO_SECS: f64 = 0.5;

/// The open-loop scenario at `rate` requests/s lasting about `secs`.
fn spec(seed: u64, rate: f64, secs: f64, workers: usize) -> ScenarioSpec {
    let requests = (rate * secs.max(MIN_SCENARIO_SECS)) as usize;
    ScenarioSpec {
        seed,
        requests,
        clients: 1,
        mode: LoadMode::Open,
        // Room for every request: nothing is refused at a fixed rate.
        queue_cap: requests,
        batch_max: 8,
        small_n: 4096,
        think_mean_ns: (1e9 / rate) as u64,
        mix: default_mix(Backend::Native),
        backend: Backend::Native,
        policy: Policy::Pws,
        workers,
        pacing: false,
        native: Config::new().workers(workers).native_config(seed),
    }
}

/// One scenario, measured: latency from due and its parts, over the
/// completed requests after warm-up.
struct Outcome {
    offered: u64,
    failed: u64,
    /// Ascending samples, microseconds.
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    queue_us: Vec<f64>,
    service_us: Vec<f64>,
    rest_us: Vec<f64>,
    /// Requests per pool launch.
    batch_mean: f64,
    /// Mean admission-queue depth rose from the first to the last third
    /// of the measured window.
    queue_grew: bool,
    /// Process CPU time (all threads) spent in the scenario, per offered
    /// request, microseconds.
    cpu_us_per_req: f64,
}

impl Outcome {
    /// Latency percentile from due, microseconds.
    fn lat(&self, q: f64) -> f64 {
        percentile(&self.lat_us, q)
    }

    /// The max-rate condition: p90 from due within the limit, nothing
    /// refused or lost, and a queue that does not grow.
    fn meets_limit(&self) -> bool {
        self.failed == 0 && !self.queue_grew && self.lat(90.0) <= LIMIT_US
    }
}

/// Mean queue depth over the samples taken in `[from, to)`.
fn mean_depth(depth: &[(u64, usize)], from: u64, to: u64) -> f64 {
    let (sum, n) = depth
        .iter()
        .filter(|&&(t, _)| t >= from && t < to)
        .fold((0usize, 0usize), |(s, n), &(_, d)| (s + d, n + 1));
    sum as f64 / n.max(1) as f64
}

/// Count failures and collect the latency samples of one scenario.
/// `due` holds each request's scheduled arrival (ns), by request id.
fn analyse(due: &[u64], report: &ScenarioReport) -> Outcome {
    let offered = due.len() as u64;
    // Every request must appear exactly once and be either completed or
    // refused; the report's totals must agree with its rows.
    let mut seen = vec![0u32; due.len()];
    let mut failed = 0u64;
    for row in &report.rows {
        match seen.get_mut(row.id as usize) {
            Some(s) => *s += 1,
            None => failed += 1,
        }
    }
    failed += seen.iter().filter(|&&s| s != 1).count() as u64;
    failed += (report.completed + report.rejected).abs_diff(offered);
    let us = |ns: u64| ns as f64 / 1e3;
    let mut o = Outcome {
        offered,
        failed,
        lat_us: Vec::new(),
        late_us: Vec::new(),
        queue_us: Vec::new(),
        service_us: Vec::new(),
        rest_us: Vec::new(),
        batch_mean: report.completed as f64 / report.launches.max(1) as f64,
        queue_grew: false,
        cpu_us_per_req: 0.0,
    };
    for row in &report.rows {
        if row.rejected || row.batch == 0 {
            // Refused, or never served: a failure either way.
            o.failed += 1;
            continue;
        }
        let Some(&d) = due.get(row.id as usize) else {
            continue;
        };
        if d < WARMUP_NS {
            continue;
        }
        o.lat_us
            .push(us(latency_from_due_ns(d, row.arrival_ns, row.latency_ns)));
        o.late_us.push(us(late_ns(d, row.arrival_ns)));
        o.queue_us.push(us(row.queue_ns));
        o.service_us.push(us(row.service_ns));
        o.rest_us.push(us(row
            .latency_ns
            .saturating_sub(row.queue_ns + row.service_ns)));
    }
    for v in [
        &mut o.lat_us,
        &mut o.late_us,
        &mut o.queue_us,
        &mut o.service_us,
        &mut o.rest_us,
    ] {
        *v = sorted(std::mem::take(v));
    }
    assert!(
        !o.lat_us.is_empty(),
        "a scenario of at least MIN_SCENARIO_SECS leaves requests after the warm-up"
    );
    let end = due.last().copied().unwrap_or(0);
    let third = end.saturating_sub(WARMUP_NS) / 3;
    let first = mean_depth(&report.queue_depth, WARMUP_NS, WARMUP_NS + third);
    let last = mean_depth(&report.queue_depth, end - third, end + 1);
    o.queue_grew = last > 2.0 * first + 2.0;
    o
}

/// CPU time this process has used so far, all threads (live and
/// exited) together, in seconds, from the nanosecond process CPU clock.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Run one scenario and analyse it, counting its requests in `rec`.
fn scenario(spec: &ScenarioSpec, rec: &mut Record) -> Outcome {
    let due: Vec<u64> = build_schedule(spec).iter().map(|r| r.arrival_ns).collect();
    let cpu = process_cpu_s();
    let report = run_scenario(spec);
    let cpu = process_cpu_s() - cpu;
    let mut o = analyse(&due, &report);
    o.cpu_us_per_req = cpu * 1e6 / o.offered as f64;
    rec.count(o.offered, o.failed);
    o
}

/// Build both fixed-rate schedules and serve a short warm-up scenario,
/// [`SETUP_REPS`] times. Returns the median set-up time in seconds.
fn set_up(seed: u64, workers: usize, rec: &mut Record) -> f64 {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for (_, rate) in RATES {
            std::hint::black_box(build_schedule(&spec(seed, rate, 1.0, workers)));
        }
        scenario(&spec(seed, RATES[1].1, 0.25, workers), rec);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Search for the highest rate meeting the limit: double from the best
/// fixed rate that met it until a probe fails, then bisect the bracket
/// geometrically to [`RESOLUTION`]. Returns the rate and the probes.
fn max_rate(
    seed: u64,
    workers: usize,
    probe_secs: f64,
    start: f64,
    rec: &mut Record,
) -> (f64, Vec<(f64, bool)>) {
    let mut probes = Vec::new();
    let mut probe = |rate: f64, rec: &mut Record| {
        let ok = scenario(&spec(seed, rate, probe_secs, workers), rec).meets_limit();
        probes.push((rate, ok));
        ok
    };
    let mut lo = start;
    let mut hi = None;
    while hi.is_none() && lo < RATE_CEILING {
        let r = lo * 2.0;
        if probe(r, rec) {
            lo = r;
        } else {
            hi = Some(r);
        }
    }
    if let Some(mut hi) = hi {
        while hi / lo > RESOLUTION {
            let mid = (lo * hi).sqrt();
            if probe(mid, rec) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    (lo, probes)
}

/// The untraced run: both fixed rates, one scenario each; set-up time
/// and the cost of a request, the mean of the two rates' CPU time per
/// request, so each rate weighs the same.
pub fn run(seed: u64, seconds: f64, workers: usize, rec: &mut Record) {
    let setup = set_up(seed, workers, rec);
    rec.metric("setup_s", setup, "s");
    let mut cpu_us = 0.0;
    for (tag, rate) in RATES {
        let o = scenario(
            &spec(seed, rate, seconds / RATES.len() as f64, workers),
            rec,
        );
        cpu_us += o.cpu_us_per_req / RATES.len() as f64;
        rec.note(format!(
            "{tag}: {} requests, {} measured after warm-up; CPU {:.1} us per request; latency from due p50 {:.0} us, p90 {:.0} us",
            o.offered,
            o.lat_us.len(),
            o.cpu_us_per_req,
            o.lat(50.0),
            o.lat(90.0)
        ));
    }
    rec.metric("op_cost_ms", cpu_us / 1e3, "ms");
}

/// The traced run: each fixed rate served twice, without and with the
/// metrics registry publishing, then the max-rate search. Latency comes
/// from the scenarios without the registry, the serve-layer split from
/// the ones with it, and the registry's cost from the pair.
pub fn run_traced(seed: u64, seconds: f64, workers: usize, rec: &mut Record, spans: &mut Spans) {
    set_up(seed, workers, rec);
    let registry = hbp_core::metrics::global();
    let (mut plain_cpu, mut traced_cpu) = (0.0, 0.0);
    let mut start = None;
    for (id, (tag, rate)) in RATES.into_iter().enumerate() {
        let s = spec(seed, rate, seconds * SHARE_RATE / 2.0, workers);
        let t = Instant::now();
        let plain = scenario(&s, rec);
        let mid = Instant::now();
        registry.set_enabled(true);
        let o = scenario(&s, rec);
        registry.set_enabled(false);
        spans.add(id as u64, "scenario.untraced", tag, t, mid);
        spans.add(id as u64, "scenario.traced", tag, mid, Instant::now());
        plain_cpu += plain.cpu_us_per_req;
        traced_cpu += o.cpu_us_per_req;
        if plain.meets_limit() {
            start = Some(rate);
        }
        rec.metric(
            format!("serve.cpu_us_per_req.{tag}"),
            plain.cpu_us_per_req,
            "us",
        );
        for q in [50, 90, 99] {
            rec.metric(format!("lat_us.p{q}.{tag}"), plain.lat(f64::from(q)), "us");
        }
        let p50 = |v: &[f64]| percentile(v, 50.0);
        rec.metric(format!("serve.queue_us.p50.{tag}"), p50(&o.queue_us), "us");
        rec.metric(
            format!("serve.service_us.p50.{tag}"),
            p50(&o.service_us),
            "us",
        );
        rec.metric(format!("serve.rest_us.p50.{tag}"), p50(&o.rest_us), "us");
        rec.metric(format!("serve.batch_mean.{tag}"), o.batch_mean, "ratio");
        let late = percentile(&o.late_us, 90.0);
        rec.metric(format!("gen.late_us.p90.{tag}"), late, "us");
    }
    rec.metric(
        "trace.overhead_frac.serve-open",
        traced_cpu / plain_cpu - 1.0,
        "ratio",
    );
    // When neither fixed rate meets the limit, search upward from a
    // tenth of the lower one.
    let start = start.unwrap_or(RATES[0].1 / 10.0);
    let probe_secs = seconds * (1.0 - SHARE_RATE) / SEARCH_PROBES;
    let t = Instant::now();
    let (best, probes) = max_rate(seed, workers, probe_secs, start, rec);
    spans.add(RATES.len() as u64, "search", "max_rate", t, Instant::now());
    rec.metric("max_rate_rps", best, "req/s");
    let listed: Vec<String> = probes
        .iter()
        .map(|(r, ok)| format!("{r:.0}:{}", if *ok { "met" } else { "missed" }))
        .collect();
    rec.note(format!("max_rate_rps probes: {}", listed.join(" ")));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbp_serve::RequestRecord;

    fn row(id: u64, arrival_ns: u64, latency_ns: u64) -> RequestRecord {
        RequestRecord {
            id,
            client: 0,
            algo: "LR",
            n: 512,
            arrival_ns,
            rejected: false,
            deferrals: 0,
            queue_ns: 10_000,
            service_ns: 20_000,
            latency_ns,
            batch: 1,
            cp: None,
        }
    }

    /// A native report over `rows`.
    fn report(rows: Vec<RequestRecord>) -> ScenarioReport {
        let s = spec(1, 1000.0, 1.0, 2);
        ScenarioReport::assemble(&s, "native", rows, 1, vec![(0, 0)], 2)
    }

    #[test]
    fn latency_is_taken_from_the_due_time() {
        let due = [WARMUP_NS, WARMUP_NS + 1_000_000];
        // The first request is submitted 50 µs late and served 40 µs
        // after enqueue: 90 µs from due.
        let rep = report(vec![
            row(0, WARMUP_NS + 50_000, 40_000),
            row(1, WARMUP_NS + 1_000_000, 40_000),
        ]);
        let o = analyse(&due, &rep);
        assert_eq!(o.failed, 0);
        assert_eq!(o.lat_us, vec![40.0, 90.0]);
        assert_eq!(o.late_us, vec![0.0, 50.0]);
        assert_eq!(o.rest_us, vec![10.0, 10.0]);
    }

    #[test]
    fn warm_up_requests_are_not_measured() {
        let due = [0, WARMUP_NS];
        let rep = report(vec![row(0, 0, 5_000_000), row(1, WARMUP_NS, 40_000)]);
        let o = analyse(&due, &rep);
        assert_eq!(o.lat_us, vec![40.0]);
    }

    #[test]
    fn lost_duplicated_and_refused_requests_are_failures() {
        let due = [WARMUP_NS, WARMUP_NS + 1, WARMUP_NS + 2];
        // Request 1 is reported twice and request 2 never.
        let rep = report(vec![
            row(0, WARMUP_NS, 1),
            row(1, WARMUP_NS + 1, 1),
            row(1, WARMUP_NS + 1, 1),
        ]);
        assert!(analyse(&due, &rep).failed >= 2);
        let mut refused = row(2, WARMUP_NS + 2, 0);
        refused.rejected = true;
        let rep = report(vec![
            row(0, WARMUP_NS, 1),
            row(1, WARMUP_NS + 1, 1),
            refused,
        ]);
        let o = analyse(&due, &rep);
        assert_eq!(o.failed, 1);
        assert!(!o.meets_limit());
    }

    #[test]
    fn a_real_scenario_is_counted_exactly_once() {
        let s = spec(5, 2000.0, 0.3, 2);
        let mut rec = Record::default();
        let o = scenario(&s, &mut rec);
        assert_eq!(o.offered, s.requests as u64);
        assert_eq!(rec.failed, 0, "every request completes exactly once");
        assert!(!o.lat_us.is_empty());
    }
}
