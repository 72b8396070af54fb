//! The session model: submit many jobs to one long-lived backend.
//!
//! [`Executor::execute`] is run-once: on the native backend it spawns a
//! pool, runs one kernel, and tears the pool down. A server cannot
//! afford that per request, so the session model splits *backend
//! lifetime* from *job execution*:
//!
//! ```text
//! Executor::open() ─→ ExecSession ─ submit(job) ─→ ExecHandle ─ wait() ─→ ExecReport
//!                          │                          (one per job,
//!                          └ native: one NativePool    delivered exactly once)
//!                            spawned once, parked
//!                            between jobs
//! ```
//!
//! Both backends share the API:
//!
//! * **native** — the session owns one [`NativePool`]: workers spawn at
//!   [`Executor::open`], successive submissions queue onto it, idle
//!   workers park between jobs, and the pool shuts down when the
//!   session drops. Inputs are generated on the *submitting* thread
//!   (outside the timed region), so the report's makespan covers the
//!   kernel alone;
//! * **sim** — submissions execute synchronously at [`ExecSession::submit`]
//!   on the calling thread (the simulator is single-threaded and
//!   deterministic; an async queue would add nondeterminism for no
//!   benefit) and the handle is born resolved. Same seed ⇒ bit-identical
//!   reports, which is what makes serve scenarios CI-able.
//!
//! Per-request tracing goes through the same path:
//! [`ExecSession::submit_traced`] attaches a per-job
//! [`TraceSink`], so a server can compute each request's critical path
//! for latency attribution without tracing unrelated requests.

use std::sync::Arc;

use hbp_sched::native::{NativePool, PoolHandle, SubmitError};
use hbp_sched::ExecReport;
use hbp_trace::{ClockDomain, TraceSink};

use crate::executor::{native_kernel, ExecJob, Executor, NativeExecutor, SimExecutor};
use crate::registry::find;

/// Why a submitted job produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The backend has no kernel for the algorithm (e.g. layout
    /// conversions on the native backend, or a name the registry does
    /// not know).
    Unmapped {
        /// The algorithm name as submitted.
        algo: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Unmapped { algo } => {
                write!(f, "backend has no kernel for algorithm {algo:?}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A long-lived submission session over one backend — obtained from
/// [`Executor::open`], dropped to release the backend (on native, this
/// shuts the pool down and joins its workers).
pub struct ExecSession {
    inner: Inner,
}

enum Inner {
    /// Sim jobs run at submit time; the executor is all the state needed.
    Sim(SimExecutor),
    /// Native jobs queue onto one persistent pool.
    Native { pool: NativePool },
}

impl ExecSession {
    pub(crate) fn sim(ex: SimExecutor) -> Self {
        Self {
            inner: Inner::Sim(ex),
        }
    }

    pub(crate) fn native(ex: &NativeExecutor) -> Self {
        Self {
            inner: Inner::Native {
                pool: NativePool::new(ex.pool),
            },
        }
    }

    /// Short backend name (`"sim"` / `"native"`).
    pub fn backend(&self) -> &'static str {
        match &self.inner {
            Inner::Sim(_) => "sim",
            Inner::Native { .. } => "native",
        }
    }

    /// Workers a per-job [`TraceSink`] must be sized for.
    pub fn workers(&self) -> usize {
        match &self.inner {
            Inner::Sim(ex) => ex.workers(),
            Inner::Native { pool } => pool.workers(),
        }
    }

    /// The clock domain of this session's traces.
    pub fn clock_domain(&self) -> ClockDomain {
        match &self.inner {
            Inner::Sim(_) => ClockDomain::Virtual,
            Inner::Native { .. } => ClockDomain::WallNs,
        }
    }

    /// Jobs accepted but not yet started (always 0 on sim, where
    /// submission *is* execution).
    pub fn queue_depth(&self) -> usize {
        match &self.inner {
            Inner::Sim(_) => 0,
            Inner::Native { pool } => pool.queue_depth(),
        }
    }

    /// Submit `job`. `Ok` carries the handle that resolves to the job's
    /// [`ExecReport`] (or to [`JobError::Unmapped`] when the backend has
    /// no kernel for the algorithm); `Err` is an admission refusal —
    /// the sim backend admits everything deterministically, the native
    /// backend refuses after shutdown ([`SubmitError::ShutDown`]) or,
    /// behind a bounded admission layer, with a pacing hint
    /// ([`SubmitError::RetryAfter`]).
    pub fn submit(&self, job: &ExecJob) -> Result<ExecHandle, SubmitError> {
        self.submit_inner(job, None)
    }

    /// [`ExecSession::submit`] with a per-job trace sink (sized for
    /// [`ExecSession::workers`] in [`ExecSession::clock_domain`]); the
    /// sink records exactly this job's events — collect it after the
    /// handle resolves.
    pub fn submit_traced(
        &self,
        job: &ExecJob,
        trace: &Arc<TraceSink>,
    ) -> Result<ExecHandle, SubmitError> {
        self.submit_inner(job, Some(Arc::clone(trace)))
    }

    fn submit_inner(
        &self,
        job: &ExecJob,
        trace: Option<Arc<TraceSink>>,
    ) -> Result<ExecHandle, SubmitError> {
        match &self.inner {
            Inner::Sim(ex) => Ok(ExecHandle {
                inner: HandleInner::Ready(
                    match &trace {
                        Some(tr) => ex.execute_traced(job, tr),
                        None => ex.execute(job),
                    }
                    .map(Box::new)
                    .ok_or_else(|| JobError::Unmapped {
                        algo: job.algo.clone(),
                    }),
                ),
            }),
            Inner::Native { pool } => {
                let Some(kernel) =
                    find(&job.algo).and_then(|spec| native_kernel(spec.name, job.n, job.seed))
                else {
                    return Ok(ExecHandle {
                        inner: HandleInner::Ready(Err(JobError::Unmapped {
                            algo: job.algo.clone(),
                        })),
                    });
                };
                let handle = pool.submit_traced(trace, kernel)?;
                Ok(ExecHandle {
                    inner: HandleInner::Pool(handle),
                })
            }
        }
    }
}

/// The waitable result of one [`ExecSession::submit`]. Consuming it is
/// the only way to observe the job's report, so each report is
/// delivered exactly once.
pub struct ExecHandle {
    inner: HandleInner,
}

enum HandleInner {
    /// Resolved at submit time (sim, or an algorithm with no kernel on
    /// this backend). Boxed: an `ExecReport` is an order of magnitude
    /// larger than the pool handle.
    Ready(Result<Box<ExecReport>, JobError>),
    /// Pending on the native pool.
    Pool(PoolHandle<()>),
}

impl ExecHandle {
    /// Block until the job completed;
    /// [`JobError::Unmapped`] when the backend had no kernel for the
    /// algorithm. A kernel panic is re-raised here, naming the worker
    /// that caught it (same contract as [`Executor::execute`]).
    pub fn wait(self) -> Result<ExecReport, JobError> {
        match self.inner {
            HandleInner::Ready(r) => r.map(|b| *b),
            HandleInner::Pool(h) => Ok(h.wait().1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbp_machine::MachineConfig;
    use hbp_sched::Policy;

    fn sim_ex() -> SimExecutor {
        SimExecutor {
            machine: MachineConfig::new(4, 1 << 10, 32),
            policy: Policy::Pws,
        }
    }

    #[test]
    fn sim_session_matches_one_shot_execute() {
        let ex = sim_ex();
        let job = ExecJob::new("Scans (M-Sum)", 512, 7);
        let direct = ex.execute(&job).unwrap();
        let session = ex.open();
        let via_session = session.submit(&job).unwrap().wait().unwrap();
        assert_eq!(direct.makespan, via_session.makespan);
        assert_eq!(direct.steals, via_session.steals);
        assert_eq!(direct.busy, via_session.busy);
    }

    #[test]
    fn native_session_serves_multiple_jobs_on_one_pool() {
        let ex = NativeExecutor::new(2, 3);
        let session = ex.open();
        assert_eq!(session.backend(), "native");
        for (algo, n) in [
            ("Scans (M-Sum)", 1 << 12),
            ("Sort (merge std-in)", 1 << 10),
            ("Scans (PS)", 1 << 11),
        ] {
            let r = session
                .submit(&ExecJob::new(algo, n, 5))
                .expect("live session admits")
                .wait()
                .unwrap_or_else(|e| panic!("{algo} has a native kernel: {e}"));
            assert!(r.makespan > 0, "{algo}");
            assert_eq!(r.p, 2, "{algo}");
        }
    }

    #[test]
    fn unmapped_algorithms_resolve_to_job_errors_on_native_sessions() {
        let ex = NativeExecutor::new(2, 1);
        let session = ex.open();
        for algo in ["RM to BI", "no such algo"] {
            // Admission succeeds (the session is live); resolution fails.
            let err = session
                .submit(&ExecJob::new(algo, 16, 1))
                .expect("live session admits")
                .wait()
                .expect_err(algo);
            assert_eq!(
                err,
                JobError::Unmapped {
                    algo: algo.to_string()
                }
            );
            assert!(err.to_string().contains(algo), "{err}");
        }
    }

    #[test]
    fn traced_session_submission_isolates_the_jobs_events() {
        let ex = NativeExecutor::new(2, 9);
        let session = ex.open();
        // An untraced job first; its tasks must not appear in the sink.
        session
            .submit(&ExecJob::new("Scans (M-Sum)", 1 << 12, 1))
            .unwrap()
            .wait()
            .unwrap();
        let sink = Arc::new(TraceSink::new(session.workers(), session.clock_domain()));
        let r = session
            .submit_traced(&ExecJob::new("Scans (M-Sum)", 1 << 12, 2), &sink)
            .unwrap()
            .wait()
            .unwrap();
        let trace = sink.collect();
        let begins = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskBegin { .. }));
        assert_eq!(begins, r.work, "sink holds exactly the traced job's tasks");
        assert_eq!(trace.segments().unclosed, 0);
    }
}
