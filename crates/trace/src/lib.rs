//! # hbp-trace — structured event tracing for both execution backends
//!
//! The paper's results are statements about *where time goes*: block
//! (false-sharing) misses, steal delays, and the critical path under
//! PWS/RWS. Aggregate counters (the `ExecReport`) say *how much*;
//! this crate records *when and on which worker*, for the simulator's
//! virtual time and the native pool's wall clock alike, and turns the
//! recording into analyses:
//!
//! * [`event`] — the backend-agnostic model: task begin/end, fork,
//!   join-resume, steal commit/fail, stack-region attach, cache-miss
//!   deltas, each stamped with a [`ClockDomain`] timestamp and a
//!   causally consistent sequence number;
//! * [`sink`] — [`TraceSink`]: per-worker lock-free-append ring buffers
//!   (one relaxed load + slot write + release store per event; no locks,
//!   no CAS). Enabled and sized by configuration (`hbp_core::Config`
//!   parses `HBP_TRACE`/`HBP_TRACE_BUF`); overflow is reported, never
//!   silent;
//! * [`trace`] — the collected [`Trace`] and its reconstruction into
//!   execution [`Segment`]s (flat per worker on the sim backend, nested
//!   on the native one);
//! * [`critical`] — [`critical_path`]: exact critical-path extraction
//!   from a sim trace's join DAG, decomposed into work, steal charges,
//!   and deque queue-wait. Its `total` equals the simulator's
//!   virtual-time makespan *exactly* (an invariant the integration
//!   tests enforce for PWS and RWS);
//! * [`analyze`] — per-worker utilization, fork→steal latency
//!   histograms, and the paper-style [`TraceSummary`];
//! * [`diff`](mod@diff) — structural trace diffing: align two traces of the same
//!   kernel by task id, compare fork/steal/segment tallies, and report
//!   where the critical paths diverge (the `trace_diff` binary and the
//!   batched-vs-unbatched regression tests are built on it);
//! * [`chrome`] — Chrome-trace JSON export ([`chrome_trace`] /
//!   [`chrome_trace_multi`]) viewable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>;
//! * [`json`] — a minimal JSON reader used to validate exports and to
//!   diff `BENCH_*.json` records (`bench_diff`).
//!
//! The crate is dependency-free and backend-agnostic: `hbp-sched`
//! pushes events from the sim event loop and the native workers;
//! `hbp-core` wires a sink through its `Executor` trait.

pub mod analyze;
pub mod chrome;
pub mod critical;
pub mod diff;
pub mod event;
pub mod json;
pub mod sink;
pub mod trace;

pub use analyze::{
    steal_latency_histogram, summarize, utilization, utilization_of, Histogram, TraceSummary,
};
pub use chrome::{chrome_trace, chrome_trace_multi, chrome_trace_with_tracks, CounterTrack};
pub use critical::{critical_path, critical_path_of, CpError, CpHop, CriticalPath, HopVia};
pub use diff::{diff, CpDivergence, TraceDiff, TraceShape};
pub use event::{ClockDomain, EventKind, TraceEvent};
pub use sink::{TraceSink, DEFAULT_CAPACITY};
pub use trace::{Segment, Segments, Trace};
