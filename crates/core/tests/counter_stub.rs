//! Stub counter-source parity: a native run with `CounterMode::Stub`
//! must emit `MissDelta` events whose per-worker totals carry the
//! stub's exact arithmetic signature, and the trace must align against
//! a sim run of the same kernel under the cross-backend completeness
//! check.
//!
//! The stub's k-th read on worker `w` is `k·(w+1)·[17, 5, 2]`, so every
//! delta (over any number of intervening reads — nested task windows
//! span more than one) is `x·(w+1)·[17, 5, 2]` for some integer `x`.
//! The per-worker totals therefore keep the components in exact
//! `17 : 5 : 2` ratio — the parity signature this test asserts.

use std::sync::Arc;

use hbp_core::prelude::*;
use hbp_core::sched::perf::stub_task_delta;
use hbp_core::sched::CounterMode;
use hbp_core::trace::EventKind;

fn stub_executor(workers: usize) -> NativeExecutor {
    let mut ex = NativeExecutor::new(workers, 7);
    ex.pool.counters = CounterMode::Stub;
    ex
}

fn miss_totals(trace: &hbp_core::trace::Trace) -> Vec<(u64, u64, u64)> {
    let mut tot = vec![(0u64, 0u64, 0u64); trace.workers];
    for ev in &trace.events {
        if let EventKind::MissDelta {
            heap_block,
            stack_block,
            stack_plain,
        } = ev.kind
        {
            let t = &mut tot[ev.worker as usize];
            t.0 += heap_block;
            t.1 += stack_block;
            t.2 += stack_plain;
        }
    }
    tot
}

#[test]
fn stub_deltas_carry_the_stub_signature_per_worker() {
    let ex = stub_executor(2);
    let sink = Arc::new(TraceSink::new(2, ClockDomain::WallNs));
    ex.execute_traced(&ExecJob::new("Sort (SPMS)", 1 << 12, 3), &sink)
        .expect("SPMS has a native kernel");
    let trace = sink.collect();
    assert_eq!(trace.dropped, 0);

    let totals = miss_totals(&trace);
    let mut nonzero = 0;
    for (w, t) in totals.iter().enumerate() {
        if *t == (0, 0, 0) {
            continue; // this worker executed no traced task
        }
        nonzero += 1;
        let base = stub_task_delta(w);
        assert_eq!(
            base,
            [17 * (w as u64 + 1), 5 * (w as u64 + 1), 2 * (w as u64 + 1)]
        );
        assert_eq!(t.0 % base[0], 0, "worker {w} heap total {t:?}");
        let x = t.0 / base[0];
        assert!(x > 0, "worker {w}");
        assert_eq!(t.1, x * base[1], "worker {w} stack total {t:?}");
        assert_eq!(t.2, x * base[2], "worker {w} plain total {t:?}");
    }
    assert!(nonzero >= 1, "worker 0 runs the root task: {totals:?}");
    assert_ne!(totals[0], (0, 0, 0), "root worker always samples");
}

#[test]
fn stub_native_trace_aligns_against_sim_cross_backend() {
    let job = ExecJob::new("Sort (SPMS)", 1 << 12, 42);

    let sim = SimExecutor {
        machine: MachineConfig::new(4, 1 << 12, 32),
        policy: Policy::Pws,
    };
    let sim_sink = Arc::new(TraceSink::new(sim.workers(), ClockDomain::Virtual));
    sim.execute_traced(&job, &sim_sink).expect("sim runs SPMS");

    let nat = stub_executor(2);
    let nat_sink = Arc::new(TraceSink::new(2, ClockDomain::WallNs));
    nat.execute_traced(&job, &nat_sink)
        .expect("SPMS has a native kernel");

    let d = hbp_core::trace::diff(&sim_sink.collect(), &nat_sink.collect());
    // Cross-backend: id spaces differ (node ids vs fork ordinals), so the
    // contract is per-side completeness plus miss totals on both sides.
    assert!(d.a.complete(), "sim side complete: {d}");
    assert!(d.b.complete(), "native side complete: {d}");
    assert!(
        d.a.misses.0 + d.a.misses.1 + d.a.misses.2 > 0,
        "sim predicts misses: {d}"
    );
    assert!(
        d.b.misses.0 + d.b.misses.1 + d.b.misses.2 > 0,
        "stub source measures misses: {d}"
    );
}

#[test]
fn counters_off_means_no_miss_deltas() {
    let mut ex = NativeExecutor::new(2, 7);
    ex.pool.counters = CounterMode::Off;
    let sink = Arc::new(TraceSink::new(2, ClockDomain::WallNs));
    ex.execute_traced(&ExecJob::new("Scans (M-Sum)", 1 << 12, 3), &sink)
        .expect("M-Sum has a native kernel");
    let trace = sink.collect();
    assert_eq!(
        trace.count(|k| matches!(k, EventKind::MissDelta { .. })),
        0,
        "Off must sample nothing"
    );
}
