//! Run one load scenario with the metrics registry live and print what
//! the registry saw: Prometheus text, the JSON snapshot, and the
//! per-tenant rollup from the scenario report.
//!
//! The bin enables the registry itself (`HBP_METRICS` is not required)
//! and resets it first, so the exposition covers exactly this scenario.
//! Configuration is the same environment surface as `serve_scenario`:
//! `HBP_SERVE_*` for the load, `HBP_BACKEND` / `HBP_POLICY` /
//! `HBP_WORKERS` / `HBP_COUNTERS` for the execution.
//!
//! When `HBP_METRICS_INTERVAL` is set (milliseconds), a background
//! [`Sampler`] additionally records a snapshot timeline during the run
//! and the bin appends a queue-depth / task-rate timeline summary. The
//! sampler paces on wall-clock time, so its sample count is *not*
//! deterministic — which is why it is opt-in: without it, a fixed-seed
//! sim scenario prints byte-identical output on every run.
//!
//! ```text
//! HBP_BACKEND=native HBP_SERVE_REQUESTS=64 \
//!     cargo run --release -p hbp-serve --bin metrics_report
//! ```

use hbp_core::metrics::{json, prometheus_text, Sampler};
use hbp_serve::{run_scenario, ScenarioSpec};

fn main() {
    let cfg = hbp_core::Config::from_env();
    let spec = ScenarioSpec::from_env();
    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    m.reset();

    let sampler = cfg.metrics_interval.map(|every| Sampler::start(m, every));

    let report = run_scenario(&spec);

    let timeline = sampler.map(Sampler::stop);
    let snap = m.snapshot();

    println!(
        "# scenario: backend={} policy={} workers={} seed={} requests={}",
        report.backend, report.policy, report.workers, report.seed, report.requests
    );
    print!("{}", prometheus_text(&snap));
    println!();
    println!("{}", json(&snap));
    println!();

    println!("# admission (pool-wide, from the registry)");
    println!(
        "admission: rejected {} deferred {} (report: rejected {} deferred {} workers_active {})",
        snap.admission_rejected,
        snap.admission_deferred,
        report.rejected,
        report.deferred,
        report.workers_active,
    );
    println!();

    let (committed, _) = snap.total_steals();
    let (local, cross) = snap.total_steal_locality();
    println!("# steal locality (pool-wide, from the registry)");
    println!(
        "steals: committed {committed} local {local} cross-domain {cross} local-share {}",
        if committed == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}%", 100.0 * local as f64 / committed as f64)
        }
    );
    println!();

    println!("# per-tenant (derived from the scenario report, not the registry)");
    for c in &report.clients_stats {
        println!(
            "tenant {}: submitted {} completed {} rejected {} latency p50/p95/p99 = {}/{}/{} ns queue-wait p50/p95/p99 = {}/{}/{} ns",
            c.client,
            c.submitted,
            c.completed,
            c.rejected,
            c.latency.p50,
            c.latency.p95,
            c.latency.p99,
            c.queue_wait.p50,
            c.queue_wait.p95,
            c.queue_wait.p99,
        );
    }

    println!();
    println!(
        "# admission queue depth timeline ({} points)",
        report.queue_depth.len()
    );
    let line = report
        .queue_depth
        .iter()
        .map(|(t, d)| format!("{t}:{d}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");

    if let Some(tl) = timeline {
        println!();
        println!("# sampler timeline: {} snapshots", tl.len());
        for s in &tl {
            println!(
                "seq {}: tasks {} steals {}/{} backlog {} jobs {}/{}",
                s.seq,
                s.total_tasks(),
                s.total_steals().0,
                s.total_steals().1,
                s.pool_backlog,
                s.jobs_submitted,
                s.jobs_completed,
            );
        }
    }
}
