//! The policy-driven worker runtime: per-worker deques, the fork-join
//! primitive, and the idle loop.
//!
//! This is the layer the tentpole refactor lifted out of the old
//! monolithic `native.rs`. The runtime owns *mechanism* — deque
//! operations, counters, tracing hooks, panic attribution — and
//! delegates every *decision* to the configured
//! [`NativeStealPolicy`](crate::policy::NativeStealPolicy) facet: victim
//! probe order ([`plan_probes`](crate::policy::NativeStealPolicy::plan_probes)),
//! steal admission by fork depth
//! ([`admit`](crate::policy::NativeStealPolicy::admit) — evaluated on the
//! thief's side *before* the claiming CAS, so refused tasks stay put),
//! and idle backoff.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hbp_trace::{EventKind as TrEv, TraceSink};

use crate::cl_deque::{ClDeque, Steal};
use crate::perf::{self, CounterMode};
use crate::policy::native::SPIN_PROBES;
use crate::policy::NativeStealPolicy;
use crate::topology::DomainMap;

use super::job::{payload_message, JobRef, StackJob};
use super::pool::Submission;

/// Per-worker counters (each worker writes only its own; Relaxed is fine,
/// aggregation happens after the scope joins).
#[derive(Default)]
pub(crate) struct WorkerCounters {
    pub(crate) busy_ns: AtomicU64,
    pub(crate) steal_ns: AtomicU64,
    pub(crate) steals: AtomicU64,
    /// Tasks moved by committed steals (≥ `steals`; equal when every
    /// steal was unbatched).
    pub(crate) stolen_tasks: AtomicU64,
    pub(crate) failed_probes: AtomicU64,
    pub(crate) tasks: AtomicU64,
}

/// The mutex-guarded coordination state of a persistent pool: the
/// submission queue, the job epoch the thieves synchronize on, and the
/// shutdown flag. One mutex guards all of it — submissions, job
/// start/stop, and thief registration are rare events compared to the
/// lock-free deque traffic inside a job.
#[derive(Default)]
pub(crate) struct PoolState {
    /// Jobs accepted but not yet driven (FIFO).
    pub(crate) queue: VecDeque<Submission>,
    /// Monotonic job counter; bumped when the driver starts a job so
    /// parked thieves can tell a *new* job from a spurious wakeup.
    pub(crate) epoch: u64,
    /// Whether a job is currently executing on the pool.
    pub(crate) running: bool,
    /// Thieves currently inside a steal loop for the running job. The
    /// driver completes a job only once this returns to zero, which is
    /// what makes the per-job trace-sink swap and counter snapshot safe.
    pub(crate) active: usize,
    /// Peak worker concurrency observed during the current job (driver
    /// included): reset to 1 by the driver at job start, raised on every
    /// thief registration — including mid-job re-registrations after a
    /// grow. Reported as [`ExecReport::workers_active`].
    pub(crate) participants: usize,
    /// Shutdown requested: the driver drains the queue then exits, and
    /// thieves exit once nothing is running or queued.
    pub(crate) exit: bool,
}

/// Per-domain micro-park state for the sharded idle loop: an exhausted
/// thief sleeps on *its domain's* condvar instead of a blind
/// `sleep(50µs)`, so an owner publishing work can wake a worker that
/// shares its cache domain first. The wait is always timeout-bounded by
/// the same 50µs the flat backoff sleeps, so a missed notify costs
/// exactly what the pre-domain pool already paid — never liveness.
#[derive(Default)]
pub(crate) struct DomainSleep {
    /// Workers currently inside [`Pool::domain_park`] for this domain
    /// (racy by a few instructions around the wait; wake-side reads
    /// tolerate that because the wait is timeout-bounded).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Shared state of one native pool: owned by [`super::pool::NativePool`]
/// behind an `Arc`, borrowed as `&Pool` by the worker threads (via
/// [`Ctx`]) for their lifetime.
pub(crate) struct Pool {
    /// Elasticity target: workers `me < desired` take part in jobs,
    /// workers `me >= desired` retire at the next steal-loop boundary
    /// and park until the target grows back over them. Clamped to
    /// `1..=deques.len()` (the pool's fixed capacity) — the driver
    /// (worker 0) never retires. Per-worker storage below is always
    /// sized at *capacity* and never resized: worker threads hold
    /// `&Pool` borrows into these Vecs for the pool's lifetime, so
    /// growth only ever flips `desired`, never reallocates.
    pub(crate) desired: AtomicUsize,
    pub(crate) deques: Vec<ClDeque<JobRef>>,
    /// Shallowest fork depth published on each worker's deque
    /// (`u32::MAX` = looks empty). Owner-maintained on push/pop with
    /// relaxed atomics; thieves read it through
    /// [`NativeStealPolicy::plan_probes_hinted`] to order their probe
    /// scans (the PWS shallowest-victim approximation of §4.7). The
    /// hint is allowed to be stale — thieves draining a deque leave it
    /// untouched — because every probe re-validates against the live
    /// deque; staleness costs a reordered scan, never correctness.
    pub(crate) depth_hints: Vec<AtomicU32>,
    /// Effective per-steal batch cap for top-level idle-loop steals
    /// (1 = unbatched; from [`super::StealBatch`] × the policy facet).
    pub(crate) batch_cap: usize,
    pub(crate) counters: Vec<WorkerCounters>,
    /// Per-job completion flag: reset by the driver before a job's root
    /// starts, set once the root returns (root return implies every
    /// forked branch joined, so the job is quiescent).
    pub(crate) done: AtomicBool,
    /// Per-worker RNG stream seed (pool seed mixed with the policy's).
    pub(crate) seed: u64,
    /// Task-boundary counter sampling mode for traced jobs
    /// ([`crate::perf`]; only consulted when a trace sink is attached).
    pub(crate) counters_mode: CounterMode,
    /// The scheduling discipline's native facet: probe order, admission,
    /// backoff.
    pub(crate) policy: Box<dyn NativeStealPolicy>,
    /// Worker → cache-domain assignment (resolved from
    /// [`super::NativeConfig::domains`]; one flat domain when unsharded).
    /// Always consulted for steal-locality *classification* (metrics,
    /// `StealCommit::cross_domain`), even when two-level stealing is off
    /// (`HBP_DOMAINS=tag:<k>`).
    pub(crate) domains: DomainMap,
    /// Whether two-level stealing is on: local-first victim order, the
    /// cross-domain depth floor, and domain-aware parking. When false
    /// the idle loop is the pre-domain flat pool, instruction for
    /// instruction on the steal path — the `domains=1` identity the
    /// trace_diff gate checks.
    pub(crate) two_level: bool,
    /// Fork-depth floor for cross-domain steals (see
    /// [`NativeStealPolicy::cross_admit`]).
    pub(crate) cross_depth: u32,
    /// Per-domain micro-park state (empty unless `two_level`).
    dsleep: Vec<DomainSleep>,
    /// Workers currently micro-parked across all domains — the wake
    /// path's cheap short-circuit (one relaxed load per fork when
    /// nobody sleeps).
    total_sleepers: AtomicUsize,
    /// The *current job's* structured-event recorder (None = tracing
    /// off, zero extra work). Swapped by the driver between jobs.
    ///
    /// # Safety protocol
    ///
    /// Written only by the driver thread in the quiesced window between
    /// jobs (`state.running == false && state.active == 0`, held under
    /// the state mutex transition). Read by workers only inside a job —
    /// thieves register in `state.active` under the mutex *before*
    /// entering their steal loop and deregister after leaving it, so no
    /// read can overlap a write; the mutex hand-offs provide the
    /// happens-before edges.
    trace_cell: UnsafeCell<Option<Arc<TraceSink>>>,
    /// Wall-clock zero of the pool (trace timestamps are relative to
    /// the current job's start; see [`Pool::now_ns`]).
    pub(crate) epoch: Instant,
    /// Nanoseconds from the pool epoch to the current job's start.
    pub(crate) job_t0_ns: AtomicU64,
    /// Next trace task id (0 is the root; reset per job).
    pub(crate) next_task: AtomicU32,
    /// Kernel panics observed in the current job: `(worker, message)` in
    /// the order they were caught; drained by the driver per job.
    pub(crate) panics: Mutex<Vec<(usize, String)>>,
    /// Coordination state (queue, epochs, shutdown).
    pub(crate) state: Mutex<PoolState>,
    /// Wakes the driver (new submission / shutdown) and the thieves
    /// (job started / shutdown).
    pub(crate) work_cv: Condvar,
    /// Wakes the driver when the last registered thief leaves its steal
    /// loop (`state.active` back to zero).
    pub(crate) quiesce_cv: Condvar,
}

// SAFETY: every field but `trace_cell` is Sync on its own; `trace_cell`
// follows the quiesce protocol documented on the field (driver-only
// writes while no thief is registered, mutex hand-offs for ordering).
unsafe impl Sync for Pool {}

impl Pool {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        workers: usize,
        desired: usize,
        seed: u64,
        policy: Box<dyn NativeStealPolicy>,
        batch_cap: usize,
        counters_mode: CounterMode,
        domains: DomainMap,
        two_level: bool,
        cross_depth: u32,
    ) -> Self {
        // Two-level stealing is meaningless with a single domain; the
        // resolver already clears it, but guard here too so the identity
        // "one domain ⇒ flat pool" holds for any caller.
        let two_level = two_level && domains.domains() > 1;
        let dsleep = if two_level {
            (0..domains.domains())
                .map(|_| DomainSleep::default())
                .collect()
        } else {
            Vec::new()
        };
        Self {
            desired: AtomicUsize::new(desired.clamp(1, workers)),
            deques: (0..workers).map(|_| ClDeque::default()).collect(),
            depth_hints: (0..workers).map(|_| AtomicU32::new(u32::MAX)).collect(),
            batch_cap: batch_cap.max(1),
            counters: (0..workers).map(|_| WorkerCounters::default()).collect(),
            done: AtomicBool::new(true),
            seed,
            counters_mode,
            policy,
            domains,
            two_level,
            cross_depth,
            dsleep,
            total_sleepers: AtomicUsize::new(0),
            trace_cell: UnsafeCell::new(None),
            epoch: Instant::now(),
            job_t0_ns: AtomicU64::new(0),
            next_task: AtomicU32::new(1),
            panics: Mutex::new(Vec::new()),
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            quiesce_cv: Condvar::new(),
        }
    }

    /// The current job's trace sink, if any.
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Arc<TraceSink>> {
        // SAFETY: the quiesce protocol on `trace_cell` — reads happen
        // only inside a job, writes only between jobs.
        unsafe { (*self.trace_cell.get()).as_ref() }
    }

    /// Swap the per-job trace sink. Must only be called by the driver in
    /// the quiesced window between jobs (see the `trace_cell` docs).
    pub(crate) fn set_trace(&self, trace: Option<Arc<TraceSink>>) {
        // SAFETY: caller contract (driver thread, quiesced window).
        unsafe { *self.trace_cell.get() = trace }
    }

    /// Nanoseconds since the current job's start (trace timestamp).
    pub(crate) fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64)
            .saturating_sub(self.job_t0_ns.load(Ordering::Relaxed))
    }

    /// Record a caught kernel panic for attribution at the job boundary.
    pub(crate) fn note_panic(&self, worker: usize, payload: &(dyn std::any::Any + Send)) {
        let msg = payload_message(payload);
        if let Ok(mut v) = self.panics.lock() {
            v.push((worker, msg));
        }
    }

    /// Owner: publish a branch on `me`'s deque and fold its fork depth
    /// into the worker's top-depth hint (the shallowest depth queued is
    /// what a §4.7-style thief wants to know about).
    pub(crate) fn push_bottom_hinted(&self, me: usize, j: JobRef) {
        self.depth_hints[me].fetch_min(j.depth, Ordering::Relaxed);
        self.deques[me].push(j);
        if self.two_level {
            self.domain_wake(me);
        }
        let m = hbp_metrics::global();
        if m.on() {
            let d = self.deques[me].len_hint() as i64;
            let sh = m.shard(me);
            sh.queue_depth.set(d);
            sh.queue_depth_peak.raise_to(d);
        }
    }

    /// Sharded idle backoff: instead of a blind `sleep(50µs)`, wait
    /// (timeout-bounded by the same 50µs) on the worker's *domain*
    /// condvar, so a local fork wakes a domain-mate immediately. Missed
    /// notifies degrade to exactly the flat pool's sleep — see
    /// [`DomainSleep`].
    pub(crate) fn domain_park(&self, me: usize) {
        let ds = &self.dsleep[self.domains.domain_of(me)];
        ds.sleepers.fetch_add(1, Ordering::Relaxed);
        self.total_sleepers.fetch_add(1, Ordering::Relaxed);
        let guard = ds.lock.lock().expect("domain sleep lock poisoned");
        let _ = ds
            .cv
            .wait_timeout(guard, Duration::from_micros(50))
            .expect("domain sleep lock poisoned");
        ds.sleepers.fetch_sub(1, Ordering::Relaxed);
        self.total_sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fork-side wake for the sharded pool: prefer a micro-parked worker
    /// in the publisher's own domain (the steal would be local); when
    /// every domain-mate is already busy, wake the domain with the most
    /// sleepers — an idle domain starts pulling work before a busy one
    /// is oversubscribed. One relaxed load when nobody sleeps.
    fn domain_wake(&self, me: usize) {
        if self.total_sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let my = self.domains.domain_of(me);
        if self.dsleep[my].sleepers.load(Ordering::Relaxed) > 0 {
            self.dsleep[my].cv.notify_one();
            return;
        }
        if let Some(ds) = self
            .dsleep
            .iter()
            .max_by_key(|ds| ds.sleepers.load(Ordering::Relaxed))
        {
            if ds.sleepers.load(Ordering::Relaxed) > 0 {
                ds.cv.notify_one();
            }
        }
    }

    /// Owner: reclaim the bottom branch, clearing the hint when the
    /// deque drains (the one cheap moment the owner can tell).
    pub(crate) fn pop_bottom_hinted(&self, me: usize) -> Option<JobRef> {
        let j = self.deques[me].pop();
        if self.deques[me].len_hint() == 0 {
            self.depth_hints[me].store(u32::MAX, Ordering::Relaxed);
        }
        let m = hbp_metrics::global();
        if m.on() {
            m.shard(me)
                .queue_depth
                .set(self.deques[me].len_hint() as i64);
        }
        j
    }
}

/// The calling context of a worker thread: which pool, which index.
#[derive(Clone, Copy)]
pub(crate) struct Ctx {
    pub(crate) pool: *const Pool,
    pub(crate) index: usize,
}

thread_local! {
    /// Set for the lifetime of a worker's main function; `None` on every
    /// other thread (where [`join`] degrades to sequential calls).
    pub(crate) static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
    /// xorshift64* state for victim selection.
    pub(crate) static RNG: Cell<u64> = const { Cell::new(0) };
    /// Task nesting depth; busy time is measured at depth 0→1 only.
    pub(crate) static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Trace task id the worker is currently executing.
    pub(crate) static CUR_TASK: Cell<u32> = const { Cell::new(0) };
    /// Fork depth of the branch the worker is currently executing (the
    /// root is 0; each enclosing `join` adds 1). Published on forked
    /// [`JobRef`]s so steal policies can apply the §5.3 floor.
    pub(crate) static FORK_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Scratch probe plan, reused across scans (no per-scan allocation).
    static PROBES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Scratch batch-steal buffer, reused across steals.
    static BATCH: RefCell<Vec<JobRef>> = const { RefCell::new(Vec::new()) };
}

/// Whether the current thread is a native-pool worker (used by
/// `hbp_algos::par::pjoin` to route joins here instead of rayon).
pub fn in_pool() -> bool {
    CTX.get().is_some()
}

/// Attribute a caught kernel panic to the worker running on this thread
/// (no-op outside a pool worker).
pub(crate) fn note_current_worker_panic(payload: &(dyn std::any::Any + Send)) {
    if let Some(ctx) = CTX.get() {
        // SAFETY: CTX is only set on a worker thread, which the pool
        // joins before its shared state is dropped.
        unsafe { (*ctx.pool).note_panic(ctx.index, payload) };
    }
}

/// Probe the other workers' deque tops in the policy's planned order
/// (hinted by the victims' published top depths), claiming up to `max`
/// tasks from the first victim that yields any; the claimed tasks are
/// appended to `out` in deque order. `None` after one full unsuccessful
/// scan, else the victim index (`out` then holds ≥ 1 task).
///
/// On a domain-sharded pool (`two_level`) the scan is **two-phase**: the
/// policy's [`plan_probes_sharded`](NativeStealPolicy::plan_probes_sharded)
/// order visits every victim in the thief's own cache domain before any
/// remote one, and remote victims additionally gate each task's fork
/// depth through [`cross_admit`](NativeStealPolicy::cross_admit) — the
/// admission composes thief-side *before* the claiming CAS, exactly
/// like the flat §5.3 floor, so refused tasks stay on their owner's
/// deque with exactly-once accounting untouched.
fn steal_from_others(pool: &Pool, me: usize, max: usize, out: &mut Vec<JobRef>) -> Option<usize> {
    let p = pool.deques.len();
    if p <= 1 {
        return None;
    }
    PROBES.with_borrow_mut(|order| {
        let mut rng = RNG.get();
        let hint = |v: usize| pool.depth_hints[v].load(Ordering::Relaxed);
        let my_dom = pool.domains.domain_of(me);
        if pool.two_level {
            let dom = |v: usize| pool.domains.domain_of(v);
            pool.policy
                .plan_probes_sharded(me, p, &mut rng, &hint, &dom, my_dom, order);
        } else {
            pool.policy
                .plan_probes_hinted(me, p, &mut rng, &hint, order);
        }
        RNG.set(rng);
        for &v in order.iter() {
            debug_assert_ne!(v, me, "policies must not plan self-probes");
            let cross = pool.two_level && pool.domains.domain_of(v) != my_dom;
            let admit = |j: &JobRef| {
                pool.policy.admit(j.depth)
                    && (!cross || pool.policy.cross_admit(j.depth, pool.cross_depth))
            };
            loop {
                let got = if max > 1 {
                    pool.deques[v].steal_batch_with(max, admit, out)
                } else {
                    match pool.deques[v].steal_with(admit) {
                        Steal::Data(j) => {
                            out.push(j);
                            Steal::Data(1)
                        }
                        Steal::Empty => Steal::Empty,
                        Steal::Retry => Steal::Retry,
                        Steal::Denied => Steal::Denied,
                    }
                };
                match got {
                    Steal::Data(_) => return Some(v),
                    // Lost a CAS race on a non-empty deque: retry the
                    // same victim (someone made progress, so this
                    // terminates when the deque drains).
                    Steal::Retry => continue,
                    Steal::Empty | Steal::Denied => break,
                }
            }
        }
        None
    })
}

/// Execute a task, timing it into `busy_ns` when it is top-level and
/// counting it either way. With tracing on, brackets the execution in
/// `TaskBegin`/`TaskEnd` events (nested inside the enclosing task's
/// segment when called from a join-wait).
pub(crate) fn execute_task(pool: &Pool, me: usize, j: JobRef) {
    let d = DEPTH.get();
    DEPTH.set(d + 1);
    let prev_fork_depth = FORK_DEPTH.get();
    FORK_DEPTH.set(j.depth);
    let prev_task = CUR_TASK.get();
    let mut c0 = None;
    if let Some(tr) = pool.trace() {
        CUR_TASK.set(j.id);
        tr.push(me, pool.now_ns(), TrEv::TaskBegin { task: j.id });
        c0 = perf::sample(pool.counters_mode, me);
    }
    if d == 0 {
        let t0 = Instant::now();
        // SAFETY: we hold the only copy of `j` (it came from a deque pop).
        unsafe { j.execute() };
        pool.counters[me]
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    } else {
        // SAFETY: as above.
        unsafe { j.execute() };
    }
    if let Some(tr) = pool.trace() {
        emit_miss_delta(pool, me, tr, c0);
        tr.push(me, pool.now_ns(), TrEv::TaskEnd { task: j.id });
        CUR_TASK.set(prev_task);
    }
    FORK_DEPTH.set(prev_fork_depth);
    DEPTH.set(d);
    pool.counters[me].tasks.fetch_add(1, Ordering::Relaxed);
    let m = hbp_metrics::global();
    if m.on() {
        m.shard(me).tasks_executed.inc();
    }
}

/// Close a counter-sampled task window: read the worker's cumulative
/// counters again and emit the delta as a `MissDelta` event *inside* the
/// task's open segment (before its `TaskEnd`), mirroring where the
/// simulator records its predicted deltas. `c0` is the `TaskBegin`-side
/// reading; `None` (sampling off/unavailable) emits nothing.
pub(crate) fn emit_miss_delta(
    pool: &Pool,
    me: usize,
    tr: &TraceSink,
    c0: Option<perf::CounterValues>,
) {
    let Some(c0) = c0 else { return };
    let Some(c1) = perf::sample(pool.counters_mode, me) else {
        return;
    };
    tr.push(
        me,
        pool.now_ns(),
        TrEv::MissDelta {
            heap_block: c1[0].saturating_sub(c0[0]),
            stack_block: c1[1].saturating_sub(c0[1]),
            stack_plain: c1[2].saturating_sub(c0[2]),
        },
    );
}

/// Fork-join on the native pool: runs `a` on the calling worker while `b`
/// is available for stealing; returns both results. Outside a pool worker
/// both closures simply run sequentially. Panics in either branch propagate to the caller,
/// with the executing worker named in the payload (see the module docs).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(ctx) = CTX.get() else {
        return (a(), b());
    };
    // SAFETY: CTX is only set on a worker thread, which the pool joins
    // before its shared state is dropped.
    let pool = unsafe { &*ctx.pool };
    let me = ctx.index;

    let job = StackJob::new(b);
    let branch_depth = FORK_DEPTH.get() + 1;
    let branch_id = match pool.trace() {
        Some(tr) => {
            let id = pool.next_task.fetch_add(1, Ordering::Relaxed);
            let cur = CUR_TASK.get();
            tr.push(
                me,
                pool.now_ns(),
                TrEv::Fork {
                    parent: cur,
                    left: cur,
                    right: id,
                },
            );
            id
        }
        None => 0,
    };
    let job_ref = job.as_job_ref(branch_id, branch_depth);
    pool.push_bottom_hinted(me, job_ref);

    // Run the left branch — at the same fork depth as the published
    // right branch. Even if it panics we must settle the right branch
    // first: a thief executing `job` borrows this stack frame.
    FORK_DEPTH.set(branch_depth);
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    FORK_DEPTH.set(branch_depth - 1);
    if let Err(payload) = &ra {
        pool.note_panic(me, payload.as_ref());
    }

    match pool.pop_bottom_hinted(me) {
        Some(j) if std::ptr::eq(j.data, job_ref.data) => {
            // Not stolen: run the right branch inline.
            execute_task(pool, me, j);
        }
        other => {
            // Our job is gone (stolen). Anything we popped instead belongs
            // to an enclosing join on this worker — put it back.
            if let Some(j) = other {
                pool.push_bottom_hinted(me, j);
            }
            // Steal other work while the thief finishes our branch.
            // Probe time inside a task is attributed to that task (see
            // the module docs), so no steal_ns accounting here. Unbatched:
            // see `steal_once` for why join-waits must not take extras.
            let mut fails = 0u32;
            while !job.done.load(Ordering::Acquire) {
                steal_once(pool, me, &mut fails, false, false);
            }
        }
    }

    let ra = match ra {
        Ok(v) => v,
        Err(payload) => panic::resume_unwind(payload),
    };
    // SAFETY: the job has executed (inline or by a thief, done observed).
    let rb = match unsafe { job.take_result() } {
        Ok(v) => v,
        Err(payload) => panic::resume_unwind(payload),
    };
    (ra, rb)
}

/// One steal attempt for an idle context: probe the other deques in the
/// policy's order, record counters and trace events, and execute the
/// stolen task(s) on success. `count_probe_ns` charges the probe scan to
/// `steal_ns` (true in the top-level idle loop; false inside a
/// join-wait, where probe time is attributed to the waiting task).
///
/// `batch` enables multi-task claiming (cap = the pool's effective
/// `batch_cap`): the first claimed task executes immediately, the rest
/// are re-published on `me`'s own deque — re-stealable by anyone, and
/// drained by the top-level loop's own-deque pop. Join-wait steals stay
/// unbatched on purpose: a batch extra buried on the deque *below* the
/// enclosing join's branch would let that join's pop-back miss its
/// branch and spin on work only other workers can finish — fatal on a
/// pool with a single active worker. The top-level loop has no
/// enclosing join, so the extras are always its own to drain.
///
/// Returns whether a task ran.
pub(crate) fn steal_once(
    pool: &Pool,
    me: usize,
    fails: &mut u32,
    count_probe_ns: bool,
    batch: bool,
) -> bool {
    let cap = if batch { pool.batch_cap } else { 1 };
    // The BATCH borrow must not outlive the claiming sequence: the task
    // executed below can re-enter steal_once from a nested join-wait on
    // this very thread, which borrows BATCH again.
    let first = BATCH.with_borrow_mut(|buf| {
        debug_assert!(buf.is_empty(), "batch scratch drained between steals");
        let t0 = Instant::now();
        let found = steal_from_others(pool, me, cap, buf);
        if count_probe_ns {
            pool.counters[me]
                .steal_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let victim = found?;
        let count = buf.len();
        // Locality classification runs off the domain *labels* alone, so
        // `tag:<k>` pools measure steal locality without sharded order
        // (the A/B control) and flat pools count everything local.
        let cross = pool.domains.domain_of(victim) != pool.domains.domain_of(me);
        pool.counters[me].steals.fetch_add(1, Ordering::Relaxed);
        pool.counters[me]
            .stolen_tasks
            .fetch_add(count as u64, Ordering::Relaxed);
        let m = hbp_metrics::global();
        if m.on() {
            let sh = m.shard(me);
            sh.steals_committed.inc();
            sh.steal_batch.observe(count as u64);
            if cross {
                sh.steals_cross_domain.inc();
            } else {
                sh.steals_local.inc();
            }
        }
        let first = buf[0];
        if let Some(tr) = pool.trace() {
            tr.push(
                me,
                pool.now_ns(),
                TrEv::StealCommit {
                    task: first.id,
                    victim: victim as u32,
                    count: count as u32,
                    cross_domain: cross,
                },
            );
        }
        // Re-publish the extras bottom-up in deque order: the deepest
        // lands nearest the bottom, so our own pops run depth-first
        // while thieves see the shallowest on top — the same discipline
        // a local fork sequence produces.
        for j in buf.drain(1..) {
            pool.push_bottom_hinted(me, j);
        }
        buf.clear();
        Some(first)
    });
    match first {
        Some(first) => {
            *fails = 0;
            execute_task(pool, me, first);
            true
        }
        None => {
            pool.counters[me]
                .failed_probes
                .fetch_add(1, Ordering::Relaxed);
            let m = hbp_metrics::global();
            if m.on() {
                m.shard(me).steals_failed.inc();
            }
            if let Some(tr) = pool.trace() {
                tr.push(me, pool.now_ns(), TrEv::StealFail);
            }
            // Sharded pools replace the policy's sleep-phase backoff
            // with a domain micro-park (same 50µs bound, but wakeable by
            // a domain-mate's fork); the spin-yield phase and every
            // unsharded pool keep the policy's own backoff untouched.
            if pool.two_level && *fails >= SPIN_PROBES {
                pool.domain_park(me);
            } else {
                pool.policy.backoff(*fails);
            }
            *fails = fails.saturating_add(1);
            false
        }
    }
}

/// How many yield-spins a retiring worker grants thieves to drain its
/// deque before it runs the leftovers itself (see [`thief_main`]).
const RETIRE_DRAIN_SPINS: u32 = 256;

/// A thief's persistent loop: park between jobs, register for each new
/// job epoch, steal top-level tasks until the job is done, deregister.
///
/// Registration (`state.active`) happens under the state mutex in the
/// same critical section that observes the new epoch, so the driver's
/// quiesce wait (`active == 0` with `running == false`) cannot miss a
/// thief that is about to enter its steal loop — the guarantee the
/// per-job trace-sink swap and counter snapshots rely on.
///
/// ## Elastic participation
///
/// A thief only registers while `me < desired`, and re-checks `desired`
/// at every steal-loop iteration. When the target shrinks below it, the
/// worker **retires**: it stops popping and stealing, yields so other
/// thieves can empty its Chase-Lev deque through the normal top-CAS
/// protocol (exactly-once is the deque's own invariant — retirement adds
/// no new transfer path), then deregisters and parks. Leftovers that no
/// thief claims within [`RETIRE_DRAIN_SPINS`] yields — admission floors
/// (§5.3 / cross-domain) can make a task *thief-invisible* — are
/// executed by the retiring owner itself before it parks, so a task can
/// never strand on a parked worker's deque. After retirement `seen` is
/// cleared, so a grow while the *same* job is still running re-registers
/// the worker into the current epoch (grow → shrink → grow composes
/// within one job).
pub(crate) fn thief_main(pool: &Pool, me: usize) {
    CTX.set(Some(Ctx { pool, index: me }));
    RNG.set((pool.seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
    let mut seen = 0u64;
    loop {
        {
            let m = hbp_metrics::global();
            let mut s = pool.state.lock().expect("pool state poisoned");
            let mut parked = false;
            loop {
                if s.running && s.epoch != seen && me < pool.desired.load(Ordering::Relaxed) {
                    seen = s.epoch;
                    s.active += 1;
                    s.participants = s.participants.max(s.active + 1);
                    break;
                }
                if s.exit && !s.running && s.queue.is_empty() {
                    drop(s);
                    CTX.set(None);
                    return;
                }
                if m.on() && !parked {
                    parked = true;
                    m.shard(me).parks.inc();
                }
                s = pool.work_cv.wait(s).expect("pool state poisoned");
            }
            if m.on() && parked {
                m.shard(me).unparks.inc();
            }
        }
        let mut fails = 0u32;
        let mut retiring = false;
        while !pool.done.load(Ordering::Acquire) {
            if me >= pool.desired.load(Ordering::Relaxed) {
                retiring = true;
                break;
            }
            // Drain our own deque first: a prior batched steal may have
            // re-published extras here. At the top level everything on
            // our deque is ours to run (no enclosing join to starve).
            while let Some(j) = pool.pop_bottom_hinted(me) {
                execute_task(pool, me, j);
            }
            if pool.done.load(Ordering::Acquire) {
                break;
            }
            steal_once(pool, me, &mut fails, true, true);
        }
        if retiring {
            // Stop popping; let thieves empty our deque. Every task here
            // is top-level (its fork parent join-waits elsewhere and
            // probes all capacity slots, retired or not), so the job
            // cannot lose it — but an admission-denied task might be
            // claimable by nobody, so after a bounded grace we run the
            // leftovers ourselves rather than strand them.
            let mut spins = 0u32;
            while !pool.done.load(Ordering::Acquire) && pool.deques[me].len_hint() != 0 {
                spins += 1;
                if spins > RETIRE_DRAIN_SPINS {
                    while let Some(j) = pool.pop_bottom_hinted(me) {
                        execute_task(pool, me, j);
                    }
                    break;
                }
                std::thread::yield_now();
            }
            // Re-arm registration for the *current* epoch: if the target
            // grows back while this job still runs, we rejoin it (epochs
            // start at 1, so 0 never collides with a live epoch).
            seen = 0;
        }
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.active -= 1;
        if s.active == 0 {
            pool.quiesce_cv.notify_all();
        }
    }
}
