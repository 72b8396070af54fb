//! The virtual-time scenario runner (sim backend).
//!
//! A discrete-event simulation of the server itself: arrivals, a bounded
//! admission queue, batching, and a single launch slot (one `NativePool`
//! serializes kernel launches, so the virtual server does too). Each
//! request's *service time* is the kernel's virtual-time makespan under
//! the scenario policy, measured once per (algo, n) shape by replaying
//! the kernel on the simulated machine — the service oracle. Everything
//! is integer virtual time off one seeded schedule, so the same spec
//! yields a byte-identical report.
//!
//! Backpressure is modeled the way the native server implements it: a
//! full queue answers with a retry hint of `(depth + 1 − cap) ×` the
//! EWMA per-request drain time; a pacing closed-loop client defers (a
//! re-arrival event at `now + hint`, up to [`MAX_DEFERRALS`] attempts)
//! before the hard rejection. All of it integer virtual time — deterministic.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use hbp_core::trace::{critical_path, ClockDomain, TraceSink};
use hbp_core::{ExecJob, Executor, MachineConfig, SimExecutor};

use crate::gen::{batchable, build_schedule, Request};
use crate::report::{CpTotals, RequestRecord, ScenarioReport};
use crate::spec::{LoadMode, ScenarioSpec, MAX_DEFERRALS};

/// Simulated-machine geometry for the service oracle: the scenario's
/// core count on the workspace's default cache (4K words, 32-word
/// blocks).
fn oracle_machine(spec: &ScenarioSpec) -> MachineConfig {
    MachineConfig::new(spec.workers, 1 << 12, 32)
}

/// Measures (once per request shape) the virtual service time and
/// critical path of a kernel launch.
struct ServiceOracle {
    ex: SimExecutor,
    cache: HashMap<(&'static str, usize), (u64, CpTotals)>,
}

impl ServiceOracle {
    fn new(spec: &ScenarioSpec) -> Self {
        Self {
            ex: SimExecutor {
                machine: oracle_machine(spec),
                policy: spec.policy,
            },
            cache: HashMap::new(),
        }
    }

    fn measure(&mut self, r: &Request) -> (u64, CpTotals) {
        if let Some(&hit) = self.cache.get(&(r.algo, r.n)) {
            return hit;
        }
        let sink = Arc::new(TraceSink::new(self.ex.workers(), ClockDomain::Virtual));
        let job = ExecJob::new(r.algo, r.n, r.seed);
        let report = self
            .ex
            .execute_traced(&job, &sink)
            .unwrap_or_else(|| panic!("oracle cannot build {:?} (n={})", r.algo, r.n));
        let cp = critical_path(&sink.collect()).expect("sim traces are virtual-clock");
        let entry = (
            report.makespan,
            CpTotals {
                total: cp.total,
                work: cp.work,
                steal: cp.steal,
                queue_wait: cp.queue_wait,
            },
        );
        self.cache.insert((r.algo, r.n), entry);
        entry
    }
}

/// A heap event. Ordering is (time, insertion seq) — the seq tiebreak
/// makes simultaneous events process in a deterministic order.
struct Ev {
    t: u64,
    seq: u64,
    kind: EvKind,
}

enum EvKind {
    /// Request `idx` of the schedule arrives at the server.
    Arrive(usize),
    /// The in-flight launch (these schedule members) completes.
    Done(Vec<Member>),
}

/// One request riding a launch.
struct Member {
    idx: usize,
    enq_t: u64,
    start_t: u64,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (t, seq) pops
        // first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// Record slot while a request is in flight.
#[derive(Default, Clone)]
struct Slot {
    submitted: bool,
    rejected: bool,
    deferrals: u32,
    arrival: u64,
    queue_ns: u64,
    service_ns: u64,
    latency_ns: u64,
    batch: usize,
    cp: Option<CpTotals>,
}

/// Run the scenario in virtual time (see module docs).
pub fn run_virtual(spec: &ScenarioSpec) -> ScenarioReport {
    let schedule = build_schedule(spec);
    let mut oracle = ServiceOracle::new(spec);

    let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
    let mut seq = 0u64;

    // Per-client streams: the closed loop feeds each client its next
    // request only after the previous one finishes (or is rejected).
    let mut streams: Vec<VecDeque<usize>> = vec![VecDeque::new(); spec.clients];
    match spec.mode {
        LoadMode::Open => {
            for r in &schedule {
                heap.push(Ev {
                    t: r.arrival_ns,
                    seq,
                    kind: EvKind::Arrive(r.id as usize),
                });
                seq += 1;
            }
        }
        LoadMode::Closed => {
            for r in &schedule {
                streams[r.client].push_back(r.id as usize);
            }
            for stream in &mut streams {
                if let Some(first) = stream.pop_front() {
                    heap.push(Ev {
                        t: schedule[first].think_ns,
                        seq,
                        kind: EvKind::Arrive(first),
                    });
                    seq += 1;
                }
            }
        }
    }

    let mut slots: Vec<Slot> = vec![Slot::default(); schedule.len()];
    let mut queue: VecDeque<Member> = VecDeque::new();
    let mut busy = false;
    let mut depth_samples: Vec<(u64, usize)> = vec![(0, 0)];
    let mut makespan = 0u64;
    // EWMA per-request drain time (virtual ns) — the retry-hint basis,
    // updated after every completed launch exactly like the native
    // dispatcher's estimate. 0 until the first launch completes; the
    // first hint then falls back to the arriving request's own oracle
    // service time.
    let mut est = 0u64;

    // Schedule a client's next closed-loop request after `now`.
    let next_for_client = |heap: &mut BinaryHeap<Ev>,
                           seq: &mut u64,
                           streams: &mut [VecDeque<usize>],
                           schedule: &[Request],
                           client: usize,
                           now: u64| {
        if let Some(next) = streams[client].pop_front() {
            heap.push(Ev {
                t: now + schedule[next].think_ns,
                seq: *seq,
                kind: EvKind::Arrive(next),
            });
            *seq += 1;
        }
    };

    while let Some(ev) = heap.pop() {
        let now = ev.t;
        makespan = makespan.max(now);
        match ev.kind {
            EvKind::Arrive(idx) => {
                let r = &schedule[idx];
                let slot = &mut slots[idx];
                if !slot.submitted {
                    // First attempt; re-arrivals of a deferred request
                    // keep the original arrival stamp.
                    slot.submitted = true;
                    slot.arrival = now;
                }
                if queue.len() >= spec.queue_cap {
                    let m = hbp_core::metrics::global();
                    if spec.pacing
                        && spec.mode == LoadMode::Closed
                        && slot.deferrals < MAX_DEFERRALS
                    {
                        // Deferral: the virtual client honors the
                        // `RetryAfter` hint — `(depth + 1 − cap) ×` the
                        // per-request drain estimate — and re-arrives.
                        // The client stays blocked meanwhile, exactly
                        // like a sleeping native client thread.
                        slot.deferrals += 1;
                        if m.on() {
                            m.admission_deferred.inc();
                        }
                        let base = if est > 0 {
                            est
                        } else {
                            oracle.measure(r).0.max(1)
                        };
                        let backlog = (queue.len() + 1 - spec.queue_cap) as u64;
                        heap.push(Ev {
                            t: now + backlog * base,
                            seq,
                            kind: EvKind::Arrive(idx),
                        });
                        seq += 1;
                    } else {
                        // Bounded admission: rejected and counted,
                        // never silently dropped. The closed loop still
                        // advances the client (a stalled client would
                        // deadlock the scenario).
                        slot.rejected = true;
                        if m.on() {
                            m.admission_rejected.inc();
                        }
                        if spec.mode == LoadMode::Closed {
                            next_for_client(
                                &mut heap,
                                &mut seq,
                                &mut streams,
                                &schedule,
                                r.client,
                                now,
                            );
                        }
                    }
                } else {
                    queue.push_back(Member {
                        idx,
                        enq_t: now,
                        start_t: 0,
                    });
                    depth_samples.push((now, queue.len()));
                }
            }
            EvKind::Done(members) => {
                busy = false;
                let service = slots[members[0].idx].service_ns;
                let per_req = (service / members.len() as u64).max(1);
                est = if est == 0 {
                    per_req
                } else {
                    (3 * est + per_req) / 4
                };
                for m in &members {
                    let r = &schedule[m.idx];
                    let slot = &mut slots[m.idx];
                    slot.queue_ns = m.start_t - m.enq_t;
                    slot.latency_ns = now - m.enq_t;
                    slot.batch = members.len();
                    let (_, cp) = oracle.measure(r);
                    slot.cp = Some(cp);
                    if spec.mode == LoadMode::Closed {
                        next_for_client(
                            &mut heap,
                            &mut seq,
                            &mut streams,
                            &schedule,
                            r.client,
                            now,
                        );
                    }
                }
            }
        }
        // Launch whenever the slot frees up and work is queued.
        if !busy {
            if let Some(mut head) = queue.pop_front() {
                head.start_t = now;
                let mut members = vec![head];
                if batchable(spec, schedule[members[0].idx].n) {
                    while members.len() < spec.batch_max {
                        match queue.front() {
                            Some(m) if batchable(spec, schedule[m.idx].n) => {
                                let mut m = queue.pop_front().expect("front exists");
                                m.start_t = now;
                                members.push(m);
                            }
                            _ => break,
                        }
                    }
                }
                depth_samples.push((now, queue.len()));
                // A shared launch's makespan is its slowest member's.
                let service = members
                    .iter()
                    .map(|m| oracle.measure(&schedule[m.idx]).0)
                    .max()
                    .expect("non-empty batch");
                for m in &members {
                    slots[m.idx].service_ns = service;
                }
                busy = true;
                heap.push(Ev {
                    t: now + service,
                    seq,
                    kind: EvKind::Done(members),
                });
                seq += 1;
            }
        }
    }

    let rows: Vec<RequestRecord> = schedule
        .iter()
        .map(|r| {
            let slot = &slots[r.id as usize];
            debug_assert!(slot.submitted, "request {} never arrived", r.id);
            RequestRecord {
                id: r.id,
                client: r.client,
                algo: r.algo,
                n: r.n,
                arrival_ns: slot.arrival,
                rejected: slot.rejected,
                deferrals: slot.deferrals,
                queue_ns: slot.queue_ns,
                service_ns: slot.service_ns,
                latency_ns: slot.latency_ns,
                batch: slot.batch,
                cp: slot.cp,
            }
        })
        .collect();
    // The single-launch-slot model engages every simulated core per
    // launch — workers_active is the configured core count.
    ScenarioReport::assemble(spec, "sim", rows, makespan, depth_samples, spec.workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_mix;
    use hbp_core::{Backend, Policy};

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 11,
            requests: 40,
            clients: 4,
            mode: LoadMode::Closed,
            queue_cap: 16,
            batch_max: 4,
            small_n: 4096,
            think_mean_ns: 50,
            mix: default_mix(Backend::Sim),
            backend: Backend::Sim,
            policy: Policy::Pws,
            workers: 4,
            pacing: false,
            native: hbp_core::sched::native::NativeConfig::default(),
        }
    }

    #[test]
    fn closed_loop_serves_every_request_deterministically() {
        let spec = small_spec();
        let a = run_virtual(&spec);
        let b = run_virtual(&spec);
        assert_eq!(a.completed, 40);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
        assert!(a.latency.p50 > 0 && a.latency.p99 >= a.latency.p95);
        assert!(a.rows.iter().all(|r| r.cp.is_some()));
        for r in &a.rows {
            let cp = r.cp.expect("sim rows carry a critical path");
            assert_eq!(cp.total, cp.work + cp.steal + cp.queue_wait);
            assert!(cp.total <= r.service_ns, "path cannot exceed the launch");
        }
    }

    #[test]
    fn open_loop_with_tiny_queue_rejects_and_counts() {
        let mut spec = small_spec();
        spec.mode = LoadMode::Open;
        spec.queue_cap = 1;
        spec.think_mean_ns = 1; // near-simultaneous arrivals swamp the queue
        let report = run_virtual(&spec);
        assert!(report.rejected > 0, "tiny queue under burst must reject");
        assert_eq!(report.completed + report.rejected, 40);
        let rejected_rows = report.rows.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(rejected_rows, report.rejected);
    }

    #[test]
    fn pacing_defers_deterministically_and_cuts_hard_rejections() {
        // Same offered load, tiny queue: the pacing run must be
        // byte-stable across runs, count its deferrals, and hard-reject
        // strictly less than the reject-only run.
        let mut spec = small_spec();
        spec.clients = 8;
        spec.queue_cap = 1;
        spec.think_mean_ns = 1;
        let hard = run_virtual(&spec);
        assert!(hard.rejected > 0, "baseline must actually reject");
        assert_eq!(hard.deferred, 0, "no pacing, no deferrals");
        spec.pacing = true;
        let paced = run_virtual(&spec);
        assert_eq!(paced.to_json(), run_virtual(&spec).to_json());
        assert!(paced.deferred > 0, "full queue must surface deferrals");
        assert!(
            paced.rejected < hard.rejected,
            "pacing must cut hard rejections: {} vs {}",
            paced.rejected,
            hard.rejected
        );
        assert_eq!(paced.completed + paced.rejected, 40);
        // Deferred-then-completed rows exist and carry their count.
        assert!(paced.rows.iter().any(|r| !r.rejected && r.deferrals > 0));
    }

    #[test]
    fn batching_shares_launches_for_small_requests() {
        let mut spec = small_spec();
        spec.mode = LoadMode::Open;
        spec.think_mean_ns = 1; // deep backlog => batches form
        let report = run_virtual(&spec);
        assert!(
            report.batched_requests > 0,
            "burst of small requests must share launches"
        );
        assert!(report.launches < report.completed);
        // Batch members share service time.
        for r in report.rows.iter().filter(|r| r.batch > 1) {
            assert!(r.latency_ns >= r.service_ns);
        }
    }

    #[test]
    fn batching_disabled_means_solo_launches() {
        let mut spec = small_spec();
        spec.batch_max = 1;
        let report = run_virtual(&spec);
        assert!(report.rows.iter().all(|r| r.rejected || r.batch == 1));
        assert_eq!(report.launches, report.completed);
    }
}
