//! Real-threads execution backend: policy-driven work stealing on a
//! persistent pool of `std::thread` workers over lock-free Chase-Lev
//! deques.
//!
//! Where [`crate::sim`] replays a *recorded* computation on a simulated
//! machine, this module runs *actual Rust closures* — the `par_*` kernels
//! of `hbp-algos` — on a pool of OS threads, and reports wall-clock time
//! in the same [`ExecReport`] shape the simulator produces, so figure
//! binaries can switch backends without changing their reporting path.
//!
//! The runtime is layered (PR 4 split mechanism from policy; PR 6 split
//! pool *lifetime* from job *execution*):
//!
//! * **deque** ([`crate::cl_deque`]): each worker owns a lock-free
//!   **Chase-Lev deque** — the owner pushes and pops at the *bottom*
//!   without locks, thieves CAS the *top*, and the last-element conflict
//!   is arbitrated by a `SeqCst` fence — the real realization of the
//!   Obs 4.1 discipline the simulator models;
//! * **policy** ([`crate::policy::NativeStealPolicy`]): victim probe
//!   order, steal admission (the §5.3 fork-depth floor), and idle
//!   backoff come from the same `Pws`/`Rws`/`Bsp` modules that drive
//!   the simulator — [`NativeConfig::policy`] carries the
//!   [`Policy`] enum, so `HBP_POLICY` selects the discipline on both
//!   backends;
//! * **worker loop** (`runtime`): [`join`] is the fork primitive — the
//!   right branch is published on the owner's deque while the owner runs
//!   the left branch; on return the owner pops it back (inline
//!   execution) or, if a thief took it, steals *other* work while
//!   waiting for the branch's completion flag. Idle workers run the
//!   policy's probe plan until the job's root completes;
//! * **pool** ([`pool`]): a [`NativePool`] spawns its workers **once**
//!   and serves successive jobs through a submission queue — workers
//!   park on a condvar between jobs, shutdown is explicit and
//!   idempotent, and every job gets its own [`ExecReport`] (and
//!   optionally its own trace sink). [`NativePool::run`] is the one-shot
//!   convenience: spawn a pool, submit one job, wait, shut down.
//!
//! ## Report semantics
//!
//! All times are **nanoseconds of wall-clock**, not simulated units:
//! `makespan` is the job's runtime (root start to pool quiescence),
//! `busy[w]` is the time worker `w` spent inside top-level tasks (the
//! root, or a task stolen from its main loop — join-wait spinning inside
//! a task is attributed to that task), `steal_overhead[w]` is the time
//! spent probing between top-level tasks, and `work` counts executed
//! tasks (the root plus every forked branch). On a persistent pool these
//! are per-job counter *deltas*, so successive reports compose.
//! Simulator-only fields (cache counters, priorities, stolen sizes) are
//! zero/empty.
//!
//! ## Tracing
//!
//! [`NativePool::run_traced`] and [`NativePool::submit_traced`]
//! additionally record structured events (`hbp-trace`,
//! [`ClockDomain::WallNs`]): task begin/end around every executed task
//! (nested when a join-wait steals), forks, steal commits/failures. Each worker appends only to
//! its own lock-free ring, so the cost per event is one
//! `Instant::elapsed` plus three relaxed atomics; with tracing off the
//! only overhead is one `Option` check per site. Timestamps are relative
//! to the traced job's start, not the pool's.
//!
//! ## Panics
//!
//! A panicking kernel closure does not poison the pool: every branch is
//! executed under `catch_unwind`, the remaining workers drain, the pool
//! stays serviceable for the next job, and the panic is re-raised from
//! [`NativePool::run`] / [`PoolHandle::wait`] as a `String` payload naming
//! the worker that panicked — `kernel panicked on worker W: message`.
//! [`PoolHandle::outcome`] exposes the caught payload instead, for
//! servers that must survive bad requests.
//!
//! [`ExecReport`]: crate::ExecReport
//! [`ClockDomain::WallNs`]: hbp_trace::ClockDomain::WallNs

mod job;
pub mod pool;
pub(crate) mod runtime;

use crate::engine::Policy;
use crate::perf::CounterMode;

pub use crate::topology::{DomainMap, DomainSpec};
pub use pool::{JobOutcome, NativePool, PoolHandle, SubmitError};
pub use runtime::{in_pool, join};

#[cfg(test)]
mod batch_tests {
    use super::StealBatch;

    #[test]
    fn steal_batch_parse_accepts_the_documented_values() {
        for v in [None, Some(""), Some("1"), Some("on"), Some("policy")] {
            assert_eq!(StealBatch::parse(v), Ok(StealBatch::Policy), "{v:?}");
        }
        for v in [Some("0"), Some("off")] {
            assert_eq!(StealBatch::parse(v), Ok(StealBatch::Off), "{v:?}");
        }
        for v in ["nope", "4"] {
            let err = StealBatch::parse(Some(v)).unwrap_err();
            assert!(err.contains("HBP_STEAL_BATCH") && err.contains(v), "{err}");
        }
        let err = StealBatch::parse(Some("4")).unwrap_err();
        assert!(err.contains("no longer supported"), "{err}");
    }
}

/// How much one committed steal may claim (`HBP_STEAL_BATCH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealBatch {
    /// Batching on, capped by the policy facet's
    /// [`steal_batch_cap`](crate::policy::NativeStealPolicy::steal_batch_cap)
    /// — the default.
    #[default]
    Policy,
    /// Batching off: every steal claims exactly one task (the pre-batch
    /// behavior, kept for A/B runs).
    Off,
}

impl StealBatch {
    /// Parse an `HBP_STEAL_BATCH` value: `None` (unset), the empty
    /// string, `1`, `on` or `policy` → [`StealBatch::Policy`]; `0` or
    /// `off` → [`StealBatch::Off`]. (`1` means *enabled at the policy
    /// default*, matching the CI A/B spelling `HBP_STEAL_BATCH=1|off`.)
    /// Any other number is a removed explicit cap and reports so;
    /// anything else is an error naming the variable, the value, and the
    /// accepted ones.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("1") | Some("on") | Some("policy") => Ok(StealBatch::Policy),
            Some("0") | Some("off") => Ok(StealBatch::Off),
            Some(n) if n.parse::<usize>().is_ok() => Err(format!(
                "HBP_STEAL_BATCH={n} is no longer supported: the per-steal cap comes from the policy; use `on`/`1`/`policy` or `off`/`0`"
            )),
            Some(other) => Err(format!(
                "HBP_STEAL_BATCH must be `on`/`1`/`policy` or `off`/`0`, got {other:?}"
            )),
        }
    }

    /// The effective per-steal cap under `policy` (1 = unbatched).
    pub(crate) fn cap(self, policy: &dyn crate::policy::NativeStealPolicy) -> usize {
        match self {
            StealBatch::Policy => policy.steal_batch_cap().max(1),
            StealBatch::Off => 1,
        }
    }
}

/// Configuration of one native pool.
#[derive(Debug, Clone, Copy)]
pub struct NativeConfig {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
    /// Seed for the workers' victim-selection RNGs (mixed with an
    /// [`Policy::Rws`] seed when the policy carries one).
    pub seed: u64,
    /// The stealing discipline's native facet (victim order, §5.3
    /// admission, backoff) — see [`crate::policy::native`].
    pub policy: Policy,
    /// Steal-batching mode (top-level idle-loop steals may claim several
    /// tasks per committed steal; see [`StealBatch`]).
    pub batch: StealBatch,
    /// Task-boundary counter sampling for traced jobs (`HBP_COUNTERS`;
    /// see [`crate::perf`]). Only consulted while a trace sink is
    /// attached — untraced jobs never open or read counters.
    pub counters: CounterMode,
    /// Cache-domain sharding (`HBP_DOMAINS`; see [`crate::topology`]).
    /// [`DomainSpec::Auto`] detects from the host (flat fallback),
    /// `Count(k)` simulates `k` domains with two-level stealing, and
    /// `Tag(k)` labels locality while keeping flat stealing. With one
    /// resolved domain the pool is behaviorally identical to the
    /// pre-domain flat pool.
    pub domains: DomainSpec,
    /// Fork-depth floor for cross-domain steals (`HBP_CROSS_DEPTH`):
    /// a branch published at fork depth `d` may cross domains only when
    /// `d <= cross_depth` (and the policy's own admission also holds).
    /// Ignored unless two-level stealing is on.
    pub cross_depth: u32,
    /// Elastic band (`HBP_AUTOSCALE=min..max`). `None` (the default)
    /// pins the pool at `workers` threads, exactly the pre-elastic
    /// behavior. `Some((min, max))` spawns the pool at capacity
    /// `max(workers, max)` and runs a controller thread that steers the
    /// *desired* worker count inside `[min, max]` from the submission
    /// backlog: pressure grows one worker per tick, sustained idleness
    /// shrinks one. Workers above the desired target retire cooperatively
    /// — they stop popping, let thieves drain their deque, execute any
    /// thief-inadmissible leftovers themselves, and park until the target
    /// rises again. [`NativePool::set_desired_workers`] overrides the
    /// controller manually.
    pub autoscale: Option<(usize, usize)>,
}

impl Default for NativeConfig {
    /// One worker per hardware thread — but at least 4, so stealing
    /// exists even on small hosts (the same default `hbp_core::Config`
    /// uses when `HBP_WORKERS` is unset) — seed 0, randomized stealing.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4),
            seed: 0,
            policy: Policy::Rws { seed: 0 },
            batch: StealBatch::Policy,
            counters: CounterMode::Auto,
            domains: DomainSpec::Auto,
            cross_depth: crate::topology::DEFAULT_CROSS_DEPTH,
            autoscale: None,
        }
    }
}

impl NativeConfig {
    /// The per-worker RNG stream seed: the pool seed, mixed with the
    /// policy's own seed when it carries one (so `rws:7` and `rws:8`
    /// probe differently even on the same pool seed).
    pub(crate) fn stream_seed(&self) -> u64 {
        match self.policy {
            Policy::Rws { seed } => self.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Policy::Pws | Policy::Bsp { .. } => self.seed,
        }
    }
}
