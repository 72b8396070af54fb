//! Virtual time: the discrete-event heap and the sweep cadence.
//!
//! The simulator is event-driven. Each core advances on [`EvKind::Step`]
//! events stamped with its private virtual clock; steal rounds run on
//! [`EvKind::Sweep`] events. Ties are broken by a global sequence number,
//! so event order — and therefore every simulated execution — is fully
//! deterministic: two runs of the same computation on the same machine
//! pop the exact same event sequence.
//!
//! Sweeps are deduplicated by timestamp: scheduling a sweep at a time at
//! which (or before which) one is already pending is a no-op, which keeps
//! the event volume linear in the number of chargeable actions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled event does when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// Advance the given core by one chargeable action.
    Step(u32),
    /// Attempt steals for all idle cores.
    Sweep,
}

/// One scheduled event: `(time, seq)` orders the heap, `seq` makes the
/// order total (FIFO among events pushed for the same instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    /// Virtual time at which the event fires.
    pub time: u64,
    /// Global push sequence number (tie-breaker).
    pub seq: u64,
    /// The event's action.
    pub kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(o.time, o.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

/// The event heap plus the sweep-dedup state.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    sweep_scheduled_at: Option<u64>,
}

impl EventQueue {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push an event at `time`; later pushes at equal times pop later.
    pub fn push(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Ev> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Whether an event pushed now at `time` would be the next to pop:
    /// `time` is strictly earlier than every pending event. At an equal
    /// time the new event carries the newest sequence number and queues
    /// behind the pending ones, so the answer is `false`.
    pub fn precedes_all(&self, time: u64) -> bool {
        self.heap.peek().is_none_or(|Reverse(ev)| time < ev.time)
    }

    /// Request a steal sweep at `time`. `wanted` gates the request (the
    /// engine passes "some core is idle"); a sweep already pending at an
    /// earlier-or-equal time absorbs the request.
    pub fn schedule_sweep(&mut self, time: u64, wanted: bool) {
        if !wanted {
            return;
        }
        if let Some(t) = self.sweep_scheduled_at {
            if t <= time {
                return;
            }
        }
        self.sweep_scheduled_at = Some(time);
        self.push(time, EvKind::Sweep);
    }

    /// Mark the pending sweep as started (called when its event pops), so
    /// the next request schedules a fresh one.
    pub fn sweep_started(&mut self) {
        self.sweep_scheduled_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(5, EvKind::Step(0));
        q.push(3, EvKind::Step(1));
        q.push(3, EvKind::Step(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![EvKind::Step(1), EvKind::Step(2), EvKind::Step(0)]
        );
    }

    #[test]
    fn sweeps_dedupe_by_timestamp() {
        let mut q = EventQueue::new();
        q.schedule_sweep(4, true);
        q.schedule_sweep(4, true); // absorbed
        q.schedule_sweep(9, true); // absorbed (a sweep is pending earlier)
        q.schedule_sweep(2, true); // earlier: scheduled too
        let sweeps = std::iter::from_fn(|| q.pop())
            .filter(|e| e.kind == EvKind::Sweep)
            .count();
        assert_eq!(sweeps, 2);
    }

    #[test]
    fn precedes_all_only_strictly_earlier_times() {
        let pending = || {
            let mut q = EventQueue::new();
            q.push(5, EvKind::Step(0));
            q.push(5, EvKind::Step(1));
            q.push(9, EvKind::Sweep);
            q
        };
        assert!(EventQueue::new().precedes_all(0), "empty queue");
        for time in 3..=10 {
            let mut q = pending();
            let ahead = q.precedes_all(time);
            assert_eq!(ahead, time < 5, "time {time}");
            // Run-ahead is exactly "push, then the push pops next".
            q.push(time, EvKind::Step(2));
            assert_eq!(q.pop().map(|e| e.kind) == Some(EvKind::Step(2)), ahead);
        }
    }

    #[test]
    fn unwanted_sweeps_are_dropped() {
        let mut q = EventQueue::new();
        q.schedule_sweep(1, false);
        assert!(q.pop().is_none());
    }
}
