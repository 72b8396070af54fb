//! **trace_report** — record a structured trace of one registry kernel
//! on either backend and print the paper-style breakdown: work, span
//! (critical path), steals, block misses, per-worker utilization, and
//! the fork→steal latency histogram.
//!
//! ```text
//! cargo run --release -p hbp-bench --bin trace_report [-- <algo-prefix> [n]]
//! ```
//!
//! * `algo-prefix` — registry lookup, as in `hbp_core::find` (default
//!   `FFT`); `n` is elements for linear kernels, the matrix side for
//!   matrix kernels (defaults 4096 / 32).
//! * `HBP_BACKEND=sim|native` picks the backend (sim default);
//!   `HBP_WORKERS` sizes the native pool; `HBP_POLICY=pws|rws[:seed]|bsp[:levels]`
//!   picks the discipline **on either backend** (the native pool runs
//!   the policy's `NativeStealPolicy` facet); `HBP_STEAL_BATCH=1|off`
//!   toggles batched stealing (compare the fork→steal latency
//!   histograms).
//! * `HBP_TRACE_OUT=<path>` additionally writes the Chrome-trace JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>). With
//!   `HBP_METRICS=1` the export also carries registry counter tracks
//!   (queue depth, pool backlog) sampled at `HBP_METRICS_INTERVAL` ms.
//! * `HBP_COUNTERS=auto|perf|stub|off` picks the native task-boundary
//!   counter source ([`hbp_core::sched::perf`]); the report names which
//!   source actually realized.
//! * `HBP_TRACE_STRICT=1` turns ring overflow (dropped events) into a
//!   nonzero exit, so CI cannot silently analyze a truncated trace.

use hbp_core::prelude::*;
use hbp_core::trace::{chrome_trace_with_tracks, summarize, CounterTrack, CpError, HopVia};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let algo = args.first().map(String::as_str).unwrap_or("FFT");
    let spec = find(algo).unwrap_or_else(|| {
        // No prefix match either: the exact-lookup error lists every
        // known row, so a typo is a usage error, not a panic.
        eprintln!(
            "error: {}",
            try_lookup(algo).map(|s| s.name.to_string()).unwrap_err()
        );
        std::process::exit(2);
    });
    let n: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("n must be a positive integer, got {s:?}")),
        None => match spec.size {
            SizeKind::Linear => 4096,
            SizeKind::MatrixSide => 32,
        },
    };

    let machine = hbp_bench::default_machine();
    let cfg = Config::from_env().apply();
    let policy = cfg.policy;
    let ex = executor_from_env(machine, policy);
    let unit = match ex.clock_domain() {
        ClockDomain::Virtual => "u",
        ClockDomain::WallNs => "ns",
    };
    println!(
        "trace report — {} (n = {n}, backend = {}, workers = {}, policy = {policy:?})",
        spec.name,
        ex.name(),
        ex.workers()
    );

    // With metrics on, sample the registry during the run so the Chrome
    // export can carry queue-depth / backlog counter tracks.
    let metrics = hbp_core::metrics::global();
    let sample_every = cfg
        .metrics_interval
        .unwrap_or(hbp_core::metrics::DEFAULT_INTERVAL);
    let sampler = metrics
        .on()
        .then(|| hbp_core::metrics::Sampler::start(metrics, sample_every));

    let sink = std::sync::Arc::new(TraceSink::new(ex.workers(), ex.clock_domain()));
    let job = ExecJob::new(spec.name, n, 42);
    let report = ex
        .execute_traced(&job, &sink)
        .unwrap_or_else(|| panic!("{} has no kernel on the {} backend", spec.name, ex.name()));
    let trace = sink.collect();
    let timeline = sampler.map(hbp_core::metrics::Sampler::stop);
    let s = summarize(&trace);

    println!("\n== paper-style breakdown ({unit} = {:?}) ==", s.clock);
    println!("  makespan         = {} {unit}", s.makespan);
    println!(
        "  work (busy)      = {} {unit} across {} workers ({} segments, {} tasks)",
        s.busy_total, s.workers, s.segments, s.tasks
    );
    match hbp_core::trace::critical_path(&trace) {
        Ok(cp) => {
            let spine_steals = cp
                .hops
                .iter()
                .filter(|h| matches!(h.via, HopVia::Steal { .. }))
                .count();
            println!(
                "  critical path    = {} {unit} (work {} + steal {} + deque wait {}; {} hops, {} stolen)",
                cp.total, cp.work, cp.steal, cp.queue_wait, cp.hops.len(), spine_steals
            );
            println!(
                "  parallelism      = {:.2} (work / critical path)",
                s.busy_total as f64 / cp.total.max(1) as f64
            );
        }
        Err(CpError::WallClockTrace) => {
            println!("  critical path    = n/a (wall-clock trace; run HBP_BACKEND=sim for the exact span)");
        }
        Err(e) => println!("  critical path    = unavailable: {e}"),
    }
    println!(
        "  steals           = {} committed covering {} tasks, {} failed attempts (report: {} / {})",
        s.steals, s.stolen_tasks, s.steal_fails, report.steals, report.steal_attempts
    );
    let (hb, sb, sp) = s.misses;
    if hb + sb + sp > 0 || ex.name() == "sim" {
        println!(
            "  block misses     = heap {hb}, stack {sb} (+ stack plain {sp}) — report: {} / {}",
            report.heap_block_misses, report.stack_block_misses
        );
    }
    if ex.name() == "native" {
        println!(
            "  counter source   = {} (HBP_COUNTERS; miss deltas above are {})",
            hbp_core::sched::perf::realized().unwrap_or("unopened"),
            match hbp_core::sched::perf::realized() {
                Some("perf") => "hardware perf-event readings",
                Some("stub") => "the deterministic stub's synthetic values",
                _ => "absent",
            }
        );
    }
    let util: Vec<String> = s
        .workers_util
        .iter()
        .enumerate()
        .map(|(w, u)| format!("w{w} {:.2}", u.utilization))
        .collect();
    println!("  utilization      = {}", util.join("  "));
    println!("  steal latency    = {}", s.steal_latency.render(unit));
    if trace.dropped > 0 {
        println!(
            "  (ring overflow: {} events dropped — raise HBP_TRACE_BUF)",
            trace.dropped
        );
    }

    if let Ok(path) = std::env::var("HBP_TRACE_OUT") {
        let tracks = timeline
            .map(|tl| metric_tracks(tl, sample_every.as_nanos() as u64))
            .unwrap_or_default();
        let json = chrome_trace_with_tracks(spec.name, &trace, &tracks);
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        println!(
            "\nwrote Chrome trace ({} bytes, {} counter tracks) to {path} — open in chrome://tracing or https://ui.perfetto.dev",
            json.len(),
            tracks.len()
        );
    }

    // Strict mode: a truncated trace means every number above is a
    // lower bound — CI must not treat that as a clean run.
    if trace.dropped > 0 && cfg.trace_strict {
        eprintln!(
            "trace_report: HBP_TRACE_STRICT=1 and {} events were dropped (ring overflow)",
            trace.dropped
        );
        std::process::exit(2);
    }
}

/// Registry snapshot timeline → Chrome counter tracks. Snapshots carry
/// no timestamps (determinism), so sample `i` is stamped at
/// `i × interval_ns` (the sampling interval) in the trace's nanosecond
/// clock.
fn metric_tracks(
    timeline: Vec<hbp_core::metrics::Snapshot>,
    interval_ns: u64,
) -> Vec<CounterTrack> {
    let workers = timeline.iter().map(|s| s.workers.len()).max().unwrap_or(0);
    let mut depth = CounterTrack::new(
        "queue depth",
        (0..workers).map(|w| format!("w{w}")).collect(),
    );
    let mut backlog = CounterTrack::new("pool backlog", vec!["jobs".into()]);
    for (i, snap) in timeline.iter().enumerate() {
        let t = i as u64 * interval_ns;
        depth.push(
            t,
            (0..workers)
                .map(|w| snap.workers.get(w).map_or(0, |ws| ws.queue_depth))
                .collect(),
        );
        backlog.push(t, vec![snap.pool_backlog]);
    }
    vec![depth, backlog]
}
