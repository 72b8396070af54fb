//! [`NativePool`]: the persistent serve-forever pool.
//!
//! PR 4's runtime spawned a fresh pool of scoped threads per kernel
//! launch; this module splits the pool's *lifetime* out of the launch.
//! A [`NativePool`] spawns its workers **once**: worker 0 is the
//! *driver* — it drains a FIFO submission queue and executes each job's
//! root closure — and workers `1..p` are *thieves* that park on a
//! condvar between jobs and steal forked branches while a job runs.
//! The Chase-Lev deques and [`NativeStealPolicy`] facets run unchanged
//! underneath: a job executes exactly as a one-shot root did, it just
//! no longer pays thread spawn/join per launch.
//!
//! ## Job lifecycle
//!
//! [`NativePool::submit`] enqueues a `'static` root closure and returns
//! a [`PoolHandle`]; [`PoolHandle::wait`] blocks until the job ran and
//! yields the root's value plus a per-job [`ExecReport`] (counter
//! *deltas* between the job's start and its quiesce point, so reports
//! compose across the pool's lifetime). Jobs execute one at a time in
//! submission order — a kernel launch spreads over every worker, like a
//! GPU kernel owns the device — which is what makes per-job reports and
//! per-job trace sinks well-defined. Queueing time is reported
//! separately ([`JobOutcome::queue_ns`]), so a server layer can split
//! latency into queue wait vs service.
//!
//! ## Shutdown
//!
//! [`NativePool::shutdown`] is explicit and **idempotent**: the first
//! call asks the driver to drain the queue (already-accepted jobs still
//! run and their handles complete), rejects new submissions, and joins
//! every worker; further calls are no-ops. Dropping the pool calls it.
//!
//! ## Tracing
//!
//! [`NativePool::submit_traced`] attaches a per-job
//! [`TraceSink`]: the driver swaps the pool's sink in the quiesced
//! window between jobs (no thief holds a steal loop there — see the
//! registration protocol in `runtime::thief_main`), so every
//! request can get its own isolated trace with per-job timestamps
//! starting near zero.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hbp_machine::{CoreStats, MachineStats};
use hbp_trace::{ClockDomain, EventKind as TrEv, TraceSink};

use crate::policy::{native_facet, NativeStealPolicy};
use crate::report::ExecReport;

use super::runtime::{
    self, note_current_worker_panic, Ctx, Pool, WorkerCounters, CTX, CUR_TASK, DEPTH, FORK_DEPTH,
    RNG,
};
use super::NativeConfig;

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// [`NativePool::shutdown`] was already requested; the pool accepts
    /// no new jobs (queued ones still drain).
    ShutDown,
    /// The admission queue is saturated *right now*, but is expected to
    /// drain: resubmitting after the enclosed hint should succeed. The
    /// hint is computed by the admitting layer from its queue depth and
    /// observed drain rate (the pool itself queues unboundedly; bounded
    /// admission layers such as `hbp-serve` produce this variant).
    /// Cooperative clients sleep the hint and retry; impatient ones may
    /// treat it as a plain rejection.
    RetryAfter(std::time::Duration),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown => write!(f, "pool is shut down"),
            SubmitError::RetryAfter(d) => {
                write!(f, "admission queue is full; retry after {}ns", d.as_nanos())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The type-erased root runner of one submission. Both variants catch
/// their own unwinds and store the outcome where the submitter can
/// reach it, so the driver thread never unwinds.
pub(crate) enum RootRun {
    /// A `'static` closure from [`NativePool::submit`] (result lands in
    /// the handle's `Arc`ed slot).
    Boxed(Box<dyn FnOnce() + Send>),
    /// A lifetime-erased pointer to a [`ScopedRoot`] on the stack of a
    /// blocked [`NativePool::run`] caller (which outlives the job by waiting
    /// on the meta before returning).
    Raw {
        data: *const (),
        exec: unsafe fn(*const ()),
    },
}

// SAFETY: Boxed closures are Send by bound; Raw pointers target a
// ScopedRoot whose closure and result are Send, and cross threads
// exactly once (submitter → driver).
unsafe impl Send for RootRun {}

/// One accepted job, queued until the driver picks it up.
pub(crate) struct Submission {
    pub(crate) run: RootRun,
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) enqueued: Instant,
    pub(crate) meta: Arc<JobMeta>,
}

/// What the driver publishes when a job completes.
pub(crate) struct JobDone {
    pub(crate) report: ExecReport,
    pub(crate) queue_ns: u64,
    pub(crate) panics: Vec<(usize, String)>,
}

/// Completion rendezvous between the driver and one submitter.
pub(crate) struct JobMeta {
    done: Mutex<Option<JobDone>>,
    cv: Condvar,
}

impl JobMeta {
    fn new() -> Self {
        Self {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, d: JobDone) {
        let mut g = self.done.lock().expect("job meta poisoned");
        debug_assert!(g.is_none(), "job completed twice");
        *g = Some(d);
        self.cv.notify_all();
    }

    pub(crate) fn wait(&self) -> JobDone {
        let mut g = self.done.lock().expect("job meta poisoned");
        loop {
            if let Some(d) = g.take() {
                return d;
            }
            g = self.cv.wait(g).expect("job meta poisoned");
        }
    }
}

/// A borrowed root closure parked on a blocked caller's stack frame
/// (the scoped-submission analogue of `StackJob` for forked branches).
struct ScopedRoot<F, R> {
    f: std::cell::UnsafeCell<Option<F>>,
    result: std::cell::UnsafeCell<Option<std::thread::Result<R>>>,
}

// SAFETY: accessed by the driver exactly once (exec) and by the owning
// caller after completion; F and R are Send by the submit bounds.
unsafe impl<F: Send, R: Send> Sync for ScopedRoot<F, R> {}

impl<F, R> ScopedRoot<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        Self {
            f: std::cell::UnsafeCell::new(Some(f)),
            result: std::cell::UnsafeCell::new(None),
        }
    }

    /// SAFETY: called at most once, with `ptr` pointing to a live Self.
    unsafe fn exec(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        let f = (*this.f.get()).take().expect("scoped root executed twice");
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        if let Err(payload) = &r {
            note_current_worker_panic(payload.as_ref());
        }
        *this.result.get() = Some(r);
    }

    /// SAFETY: only after the job's meta completed (result written).
    unsafe fn take_result(&self) -> std::thread::Result<R> {
        (*self.result.get())
            .take()
            .expect("scoped root result taken before execution")
    }
}

/// Result slot of a boxed submission, shared between the closure that
/// fills it and the [`PoolHandle`] that takes it.
struct ResultCell<R>(Mutex<Option<std::thread::Result<R>>>);

/// Everything a completed job yields: the root's outcome (value or
/// panic payload), the per-job report, the time the job sat in the
/// submission queue, and the kernel panics recorded during it.
pub struct JobOutcome<R> {
    /// The root closure's return value, or the panic payload if it
    /// (or a forked branch) panicked.
    pub result: std::thread::Result<R>,
    /// Per-job execution report: counter deltas over the job window,
    /// `makespan` = root start → pool quiesce, wall-clock nanoseconds.
    pub report: ExecReport,
    /// Nanoseconds the job waited in the submission queue before the
    /// driver picked it up (not part of the report's makespan).
    pub queue_ns: u64,
    /// Kernel panics caught during the job, `(worker, message)`.
    pub panics: Vec<(usize, String)>,
}

/// Waitable handle to one submitted job. Consuming it with
/// [`PoolHandle::wait`] (or [`PoolHandle::outcome`]) is the only way to
/// observe the job's result, so every report is delivered exactly once.
pub struct PoolHandle<R> {
    result: Arc<ResultCell<R>>,
    meta: Arc<JobMeta>,
}

impl<R> PoolHandle<R> {
    /// Block until the job completed; return the full [`JobOutcome`]
    /// (never panics on a kernel panic — inspect `result` instead).
    pub fn outcome(self) -> JobOutcome<R> {
        let done = self.meta.wait();
        let result = self
            .result
            .0
            .lock()
            .expect("result slot poisoned")
            .take()
            .expect("job completed without a result");
        JobOutcome {
            result,
            report: done.report,
            queue_ns: done.queue_ns,
            panics: done.panics,
        }
    }

    /// Block until the job completed; return the root's value and the
    /// per-job report. A kernel panic is re-raised here, attributed to
    /// the worker that caught it (`kernel panicked on worker W: msg`).
    pub fn wait(self) -> (R, ExecReport) {
        let o = self.outcome();
        match o.result {
            Ok(v) => (v, o.report),
            Err(payload) => raise_job_panic(&o.panics, payload),
        }
    }
}

/// Re-raise a job panic with worker attribution when available.
fn raise_job_panic(panics: &[(usize, String)], payload: Box<dyn std::any::Any + Send>) -> ! {
    match panics.first() {
        Some((w, msg)) => panic!("kernel panicked on worker {w}: {msg}"),
        None => panic::resume_unwind(payload),
    }
}

/// A persistent work-stealing pool: workers spawn once, successive jobs
/// arrive through a submission queue, idle workers park between jobs,
/// shutdown is explicit (see the module docs).
pub struct NativePool {
    shared: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
    /// Fixed thread capacity (the elastic ceiling; per-worker storage is
    /// sized at this and never resized).
    workers: usize,
}

impl NativePool {
    /// Spawn a pool of worker threads (one driver + thieves), with
    /// `cfg`'s policy facet and RNG stream seed.
    ///
    /// The pool's **capacity** is `cfg.workers`, raised to the autoscale
    /// ceiling when `cfg.autoscale` is set: every capacity slot gets its
    /// thread and its place in the domain map at spawn (the map is
    /// resolved once, over the full capacity, so grow/shrink never
    /// re-partitions it — `domains()` metadata is stable for the pool's
    /// lifetime). Initially only `cfg.workers` slots *participate*
    /// (clamped into the autoscale band when one is set); the rest park
    /// until [`NativePool::set_desired_workers`] — or the autoscale
    /// controller — raises the target over them.
    pub fn new(cfg: NativeConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        if let Some((min, max)) = cfg.autoscale {
            assert!(
                min >= 1 && min <= max,
                "autoscale band must satisfy 1 <= min <= max, got {min}..{max}"
            );
        }
        let capacity = cfg
            .autoscale
            .map_or(cfg.workers, |(_, max)| max.max(cfg.workers));
        let desired = cfg
            .autoscale
            .map_or(cfg.workers, |(min, max)| cfg.workers.clamp(min, max));
        let policy: Box<dyn NativeStealPolicy> = native_facet(cfg.policy);
        let batch_cap = cfg.batch.cap(policy.as_ref());
        // Resolve the cache-domain sharding once, at spawn: auto-detected
        // from /sys (flat fallback, loudly), or simulated (`<k>`/`tag:<k>`).
        let (domains, two_level) = cfg.domains.resolve(capacity);
        let shared = Arc::new(Pool::new(
            capacity,
            desired,
            cfg.stream_seed(),
            policy,
            batch_cap,
            cfg.counters,
            domains,
            two_level,
            cfg.cross_depth,
        ));
        let mut threads = Vec::with_capacity(capacity + 1);
        let p = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("hbp-pool-driver".into())
                .spawn(move || driver_main(&p))
                .expect("spawn pool driver"),
        );
        for w in 1..capacity {
            let p = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hbp-pool-w{w}"))
                    .spawn(move || runtime::thief_main(&p, w))
                    .expect("spawn pool worker"),
            );
        }
        if let Some((min, max)) = cfg.autoscale {
            let p = Arc::clone(&shared);
            let max = max.min(capacity);
            threads.push(
                std::thread::Builder::new()
                    .name("hbp-pool-autoscale".into())
                    .spawn(move || autoscale_main(&p, min.min(max), max))
                    .expect("spawn autoscale controller"),
            );
        }
        Self {
            shared,
            threads,
            workers: capacity,
        }
    }

    /// Number of worker threads (driver included) — the pool's fixed
    /// capacity, i.e. the elastic ceiling, not the current target.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The current elastic participation target (see
    /// [`NativePool::set_desired_workers`]).
    pub fn desired_workers(&self) -> usize {
        self.shared.desired.load(Ordering::Relaxed)
    }

    /// Set the elastic participation target: workers `w < n` serve jobs,
    /// workers `w >= n` retire at their next steal-loop boundary (they
    /// stop popping, let thieves drain their deques, then park — see
    /// `runtime::thief_main`) and rejoin when the target grows back.
    /// Clamped to `1..=workers()`; takes effect mid-job in both
    /// directions. Worker 0 (the driver) always participates.
    pub fn set_desired_workers(&self, n: usize) {
        let n = n.clamp(1, self.workers);
        self.shared.desired.store(n, Ordering::Relaxed);
        // Wake parked thieves so a grow is acted on immediately (a
        // shrink needs no wake: active workers poll `desired`).
        self.shared.work_cv.notify_all();
    }

    /// Resolved cache-domain count (1 = the flat pool).
    pub fn domains(&self) -> usize {
        self.shared.domains.domains()
    }

    /// Whether two-level stealing (local-first victim order, the
    /// cross-domain depth floor, domain-aware parking) is active —
    /// false for flat, single-domain, and `tag:<k>` pools.
    pub fn two_level(&self) -> bool {
        self.shared.two_level
    }

    /// Jobs accepted but not yet started (the driver's backlog).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .queue
            .len()
    }

    /// Submit a root closure; the returned handle waits for its value
    /// and per-job report. Jobs run in submission order.
    pub fn submit<R, F>(&self, f: F) -> Result<PoolHandle<R>, SubmitError>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_traced(None, f)
    }

    /// [`NativePool::submit`] with a per-job trace sink (must be in
    /// [`ClockDomain::WallNs`] and sized for at least
    /// [`NativePool::workers`] workers). Event timestamps restart near
    /// zero at the job's start.
    pub fn submit_traced<R, F>(
        &self,
        trace: Option<Arc<TraceSink>>,
        f: F,
    ) -> Result<PoolHandle<R>, SubmitError>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.check_sink(trace.as_deref());
        let result = Arc::new(ResultCell(Mutex::new(None)));
        let slot = Arc::clone(&result);
        let run = RootRun::Boxed(Box::new(move || {
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = &r {
                note_current_worker_panic(payload.as_ref());
            }
            *slot.0.lock().expect("result slot poisoned") = Some(r);
        }));
        let meta = self.enqueue(run, trace)?;
        Ok(PoolHandle { result, meta })
    }

    /// Lifetime-erased submission for the blocking [`NativePool::run`] path.
    ///
    /// SAFETY: `data`/`exec` must target a live [`ScopedRoot`] whose
    /// borrows stay valid until the returned meta completes — the
    /// caller must wait on it before returning.
    unsafe fn submit_scoped(
        &self,
        trace: Option<Arc<TraceSink>>,
        data: *const (),
        exec: unsafe fn(*const ()),
    ) -> Result<Arc<JobMeta>, SubmitError> {
        self.check_sink(trace.as_deref());
        self.enqueue(RootRun::Raw { data, exec }, trace)
    }

    fn check_sink(&self, trace: Option<&TraceSink>) {
        if let Some(tr) = trace {
            assert!(
                tr.workers() >= self.workers,
                "trace sink sized for {} workers, pool has {}",
                tr.workers(),
                self.workers
            );
            assert!(
                tr.clock() == ClockDomain::WallNs,
                "native traces are wall-clock; use ClockDomain::WallNs"
            );
        }
    }

    fn enqueue(
        &self,
        run: RootRun,
        trace: Option<Arc<TraceSink>>,
    ) -> Result<Arc<JobMeta>, SubmitError> {
        let meta = Arc::new(JobMeta::new());
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            if s.exit {
                return Err(SubmitError::ShutDown);
            }
            s.queue.push_back(Submission {
                run,
                trace,
                enqueued: Instant::now(),
                meta: Arc::clone(&meta),
            });
            let m = hbp_metrics::global();
            if m.on() {
                m.jobs_submitted.inc();
                let depth = s.queue.len() as i64;
                m.pool_backlog.set(depth);
                m.pool_backlog_peak.raise_to(depth);
            }
        }
        self.shared.work_cv.notify_all();
        Ok(meta)
    }

    /// Run `root` on a fresh one-job pool and report.
    ///
    /// `root` executes on worker 0; [`join`](super::join) calls inside it
    /// (directly or via `hbp_algos::par::pjoin`) fork onto the worker
    /// deques, and idle workers steal under the pool's policy facet.
    /// Returns the root's value plus the wall-clock [`ExecReport`] (see
    /// the module docs for the field semantics). Spawning threads per
    /// call is the whole cost — servers that launch many kernels keep one
    /// [`NativePool`] and [`NativePool::submit`] into it, or use the
    /// `hbp-core` session API.
    pub fn run<R, F>(cfg: NativeConfig, root: F) -> (R, ExecReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        Self::run_traced(cfg, None, root)
    }

    /// [`NativePool::run`] with optional structured-event recording.
    /// When `trace` is `Some`, the sink must be in [`ClockDomain::WallNs`]
    /// and sized for at least the pool's capacity; collect it after
    /// this returns.
    pub fn run_traced<R, F>(
        cfg: NativeConfig,
        trace: Option<Arc<TraceSink>>,
        root: F,
    ) -> (R, ExecReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            CTX.get().is_none(),
            "a one-shot native run cannot be nested inside a pool worker"
        );
        let pool = NativePool::new(cfg);
        let root_cell = ScopedRoot::new(root);
        // SAFETY: the root borrows the caller's stack (non-'static), which
        // is sound because we block on the job's completion before
        // returning: the ScopedRoot outlives the job by construction.
        let meta = unsafe {
            pool.submit_scoped(
                trace,
                &root_cell as *const _ as *const (),
                ScopedRoot::<F, R>::exec,
            )
        }
        .expect("fresh pool accepts a submission");
        let done = meta.wait();
        // SAFETY: the meta completed, so the driver wrote the result and no
        // longer references the ScopedRoot.
        let result = unsafe { root_cell.take_result() };
        drop(pool); // joins the workers
        match result {
            Ok(v) => (v, done.report),
            Err(payload) => raise_job_panic(&done.panics, payload),
        }
    }

    /// Drain the queue (accepted jobs still run), reject new
    /// submissions, and join every worker. Idempotent: repeat calls
    /// (including the one from `Drop`) are no-ops.
    pub fn shutdown(&mut self) {
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            s.exit = true;
        }
        self.shared.work_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NativePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's counter snapshot, used for per-job deltas.
#[derive(Clone, Copy, Default)]
struct CounterSnap {
    busy_ns: u64,
    steal_ns: u64,
    steals: u64,
    stolen_tasks: u64,
    failed_probes: u64,
    tasks: u64,
}

fn snapshot(counters: &[WorkerCounters]) -> Vec<CounterSnap> {
    counters
        .iter()
        .map(|c| CounterSnap {
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
            steal_ns: c.steal_ns.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            stolen_tasks: c.stolen_tasks.load(Ordering::Relaxed),
            failed_probes: c.failed_probes.load(Ordering::Relaxed),
            tasks: c.tasks.load(Ordering::Relaxed),
        })
        .collect()
}

/// Assemble a per-job [`ExecReport`] from before/after counter
/// snapshots (same field semantics as the one-shot runner's report —
/// see the `native` module docs). `workers_active` is the job's peak
/// worker participation (driver included), which on an elastic pool can
/// be anywhere in `1..=p`.
fn delta_report(
    before: &[CounterSnap],
    after: &[CounterSnap],
    makespan: u64,
    workers_active: usize,
) -> ExecReport {
    let p = before.len();
    let busy: Vec<u64> = (0..p)
        .map(|w| after[w].busy_ns - before[w].busy_ns)
        .collect();
    let steal_overhead: Vec<u64> = (0..p)
        .map(|w| after[w].steal_ns - before[w].steal_ns)
        .collect();
    let idle: Vec<u64> = busy
        .iter()
        .zip(&steal_overhead)
        .map(|(&b, &s)| makespan.saturating_sub(b + s))
        .collect();
    let steals: u64 = (0..p).map(|w| after[w].steals - before[w].steals).sum();
    let stolen_tasks: u64 = (0..p)
        .map(|w| after[w].stolen_tasks - before[w].stolen_tasks)
        .sum();
    let failed: u64 = (0..p)
        .map(|w| after[w].failed_probes - before[w].failed_probes)
        .sum();
    ExecReport {
        p,
        makespan,
        work: (0..p).map(|w| after[w].tasks - before[w].tasks).sum(),
        machine: MachineStats {
            per_core: vec![CoreStats::default(); p],
            block_transfers: 0,
        },
        heap_block_misses: 0,
        stack_block_misses: 0,
        stack_plain_misses: 0,
        steals,
        stolen_tasks,
        steal_attempts: steals + failed,
        steals_by_priority: Vec::new(),
        stolen_sizes: Vec::new(),
        usurpations: 0,
        busy,
        steal_overhead,
        idle,
        n_priorities: 0,
        workers_active,
    }
}

/// The autoscale controller: a sampling loop that steers the pool's
/// `desired` worker target inside `[min, max]` from the observable
/// pressure signals — the submission backlog (the same queue depth the
/// metrics registry publishes as `pool_backlog`) and whether a job is in
/// flight. Pressure (a queued or running job) grows the target one
/// worker per tick; a fully idle pool shrinks one worker per
/// [`IDLE_TICKS_TO_SHRINK`] quiet ticks, down to `min`. Exits with the
/// pool.
fn autoscale_main(pool: &Pool, min: usize, max: usize) {
    /// Sampling period. Coarse enough to stay invisible in profiles,
    /// fine enough that a serve-scenario burst grows the pool within a
    /// few requests.
    const TICK: std::time::Duration = std::time::Duration::from_micros(500);
    const IDLE_TICKS_TO_SHRINK: u32 = 4;
    let mut idle_ticks = 0u32;
    loop {
        let (backlog, running, exit) = {
            let s = pool.state.lock().expect("pool state poisoned");
            (s.queue.len(), s.running, s.exit)
        };
        if exit && !running && backlog == 0 {
            return;
        }
        let cur = pool.desired.load(Ordering::Relaxed);
        if backlog > 0 || running {
            idle_ticks = 0;
            if cur < max {
                pool.desired.store(cur + 1, Ordering::Relaxed);
                pool.work_cv.notify_all();
            }
        } else {
            idle_ticks = idle_ticks.saturating_add(1);
            if idle_ticks >= IDLE_TICKS_TO_SHRINK && cur > min {
                pool.desired.store(cur - 1, Ordering::Relaxed);
                idle_ticks = 0;
            }
        }
        std::thread::sleep(TICK);
    }
}

/// The driver's main loop: drain the submission queue until shutdown.
fn driver_main(pool: &Pool) {
    CTX.set(Some(Ctx { pool, index: 0 }));
    RNG.set((pool.seed ^ 0x9E37_79B9_7F4A_7C15) | 1);
    loop {
        let sub = {
            let mut s = pool.state.lock().expect("pool state poisoned");
            loop {
                if let Some(sub) = s.queue.pop_front() {
                    let m = hbp_metrics::global();
                    if m.on() {
                        m.pool_backlog.set(s.queue.len() as i64);
                    }
                    break Some(sub);
                }
                if s.exit {
                    break None;
                }
                s = pool.work_cv.wait(s).expect("pool state poisoned");
            }
        };
        let Some(sub) = sub else { break };
        drive_one(pool, sub);
    }
    CTX.set(None);
    // Release parked thieves: with `exit` set, an empty queue, and
    // nothing running, their loop condition lets them return.
    pool.work_cv.notify_all();
}

/// Execute one submission on the pool: swap per-job state in the
/// quiesced window, wake the thieves, run the root as task 0 on the
/// driver, wait for quiescence, and publish the per-job outcome.
fn drive_one(pool: &Pool, sub: Submission) {
    let Submission {
        run,
        trace,
        enqueued,
        meta,
    } = sub;
    let queue_ns = enqueued.elapsed().as_nanos() as u64;
    // Quiesced window: no thief holds a steal loop (see thief_main's
    // registration protocol), so per-job state swaps are race-free.
    pool.set_trace(trace);
    if pool.domains.domains() > 1 {
        if let Some(tr) = pool.trace() {
            // Annotate the trace's worker lanes with their cache
            // domains (flat pools leave this empty, so their traces
            // stay byte-identical to the pre-domain runtime's).
            tr.set_domains(pool.domains.labels());
        }
    }
    pool.next_task.store(1, Ordering::Relaxed);
    pool.job_t0_ns
        .store(pool.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let before = snapshot(&pool.counters);
    pool.done.store(false, Ordering::Release);
    {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = true;
        s.epoch += 1;
        // Reset the per-job participation peak to the driver alone;
        // every thief registration raises it (see thief_main).
        s.participants = 1;
    }
    pool.work_cv.notify_all();

    let t0 = Instant::now();
    DEPTH.set(1);
    CUR_TASK.set(0);
    FORK_DEPTH.set(0);
    let mut root_c0 = None;
    if let Some(tr) = pool.trace() {
        tr.push(0, pool.now_ns(), TrEv::TaskBegin { task: 0 });
        root_c0 = crate::perf::sample(pool.counters_mode, 0);
    }
    let tb = Instant::now();
    // Both runner variants catch their own unwinds; this outer catch is
    // the driver's last line of defense (a poisoned result slot, say) —
    // the driver thread must survive every job.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match run {
        RootRun::Boxed(f) => f(),
        // SAFETY: submit_scoped's contract — the ScopedRoot is alive
        // until its meta completes, which is after this returns.
        RootRun::Raw { data, exec } => unsafe { exec(data) },
    }));
    pool.counters[0]
        .busy_ns
        .fetch_add(tb.elapsed().as_nanos() as u64, Ordering::Relaxed);
    pool.counters[0].tasks.fetch_add(1, Ordering::Relaxed);
    if let Some(tr) = pool.trace() {
        runtime::emit_miss_delta(pool, 0, tr, root_c0);
        tr.push(0, pool.now_ns(), TrEv::TaskEnd { task: 0 });
    }
    DEPTH.set(0);
    if let Err(payload) = outcome {
        pool.note_panic(0, payload.as_ref());
    }
    pool.done.store(true, Ordering::Release);
    let workers_active = {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = false;
        while s.active > 0 {
            s = pool.quiesce_cv.wait(s).expect("pool state poisoned");
        }
        s.participants
    };
    let makespan = t0.elapsed().as_nanos() as u64;
    let after = snapshot(&pool.counters);
    let report = delta_report(&before, &after, makespan, workers_active);
    {
        // Per-job serve-level publish: one increment and one histogram
        // observation per job (end-to-end latency = queue wait + service),
        // plus the driver's own task count for this job — the per-task
        // increments in execute_task cover forked branches, and the root
        // runs outside it.
        let m = hbp_metrics::global();
        if m.on() {
            m.jobs_completed.inc();
            m.job_latency_ns.observe(queue_ns + makespan);
            m.workers_active.set(workers_active as i64);
            m.shard(0).tasks_executed.inc();
        }
    }
    let panics = pool
        .panics
        .lock()
        .map(|mut v| v.drain(..).collect())
        .unwrap_or_default();
    // Drop the job's sink reference before signaling completion, so a
    // waiter that collects its sink right after wait() observes the
    // quiesced rings (the sink's collect contract).
    pool.set_trace(None);
    meta.complete(JobDone {
        report,
        queue_ns,
        panics,
    });
}
