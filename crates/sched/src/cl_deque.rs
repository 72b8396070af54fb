//! A lock-free Chase–Lev work-stealing deque.
//!
//! This is the real realization of the Obs 4.1 deque discipline that
//! [`crate::deque`] models in virtual time: the owner pushes and pops at the
//! **bottom** without synchronization in the common case, thieves race on
//! the **top** with a single compare-and-swap, and the one genuinely
//! contended case — owner and thief meeting on the last element — is
//! arbitrated by a `SeqCst` fence plus a CAS on `top` (Chase & Lev,
//! SPAA 2005; memory orderings follow Lê, Pop, Cocchini & Zappa Nardelli,
//! PPoPP 2013).
//!
//! ## Shape
//!
//! * `bottom` and `top` are monotonically increasing indices into a
//!   **growable circular array** (capacity always a power of two; slots
//!   are addressed `index & mask`, so the indices themselves never wrap).
//! * [`ClDeque::push`] grows the array when full — owner-only, so growth
//!   needs no CAS: the new buffer is published with a `Release` store.
//! * **Retired-buffer reclamation**: a thief may still be reading a slot
//!   of a buffer the owner just replaced. Retired buffers are therefore
//!   parked in a retire list and freed only when the deque is dropped —
//!   the degenerate (and provably safe) end of the epoch spectrum. A
//!   deque that grows `g` times retires `2^{g+1} - 2` slots total, i.e.
//!   less than one extra copy of the largest live buffer, so the cost is
//!   bounded and there is no per-operation reclamation bookkeeping on
//!   the steal path.
//! * [`ClDeque::steal_with`] takes an **admission filter**: the thief
//!   reads the top element, asks the filter, and only then CASes `top`.
//!   A denied element stays in place. This is what lets the BSP facet of
//!   the native runtime (§5.3) refuse deep tasks without dequeuing them,
//!   and the filter *composes*: on a domain-sharded pool the runtime
//!   passes `admit(depth) && cross_admit(depth, floor)` for cross-domain
//!   victims, so a task too deep to cross cache domains is refused by
//!   the same thief-side predicate, before the claiming CAS, with no new
//!   deque machinery.
//!
//! ## Safety notes
//!
//! A thief's raw copy of a slot can race with the owner overwriting
//! that slot after the element was lost elsewhere — the standard
//! Chase–Lev hazard. No code path *observes* such a copy: after the
//! read, the thief re-checks `top` (monotonic, so `top == t` proves the
//! slot was stable for the whole read — the owner can only reuse the
//! physical slot once `top` has moved past it) and `mem::forget`s the
//! copy on any mismatch before the admission filter or the caller sees
//! it. The single-threaded unit tests below are Miri-clean, and the
//! cross-thread protocol is exercised by the steal storms in
//! `tests/cl_deque.rs`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Mutex;

/// Outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The top element was read and claimed.
    Data(T),
    /// Lost a race (another thief took the top, or the owner popped the
    /// last element); retrying immediately may succeed.
    Retry,
    /// The admission filter refused the top element; it stays in place.
    Denied,
}

/// One circular buffer generation.
struct Buffer<T> {
    /// Power-of-two slot count.
    cap: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Self { cap, slots })
    }

    /// Write `v` at logical index `i`. SAFETY: owner-only; the slot must
    /// not hold a live value (indices in `[top, bottom)` are live).
    unsafe fn write(&self, i: isize, v: T) {
        let slot = &self.slots[(i as usize) & (self.cap - 1)];
        (*slot.get()).write(v);
    }

    /// Read the value at logical index `i`. SAFETY: the caller must
    /// either own the index (owner pop) or validate the read with a
    /// successful CAS on `top` before using it (thief), forgetting the
    /// value otherwise.
    unsafe fn read(&self, i: isize) -> T {
        let slot = &self.slots[(i as usize) & (self.cap - 1)];
        (*slot.get()).assume_init_read()
    }
}

/// The lock-free Chase–Lev deque (see module docs).
///
/// The owner calls [`push`](ClDeque::push) / [`pop`](ClDeque::pop) from
/// one thread; any number of thieves call [`steal`](ClDeque::steal) /
/// [`steal_with`](ClDeque::steal_with) concurrently.
pub struct ClDeque<T> {
    /// Next index the owner pushes at (owner-written, thief-read).
    bottom: AtomicIsize,
    /// Next index thieves steal at (CASed by thieves and the owner's
    /// last-element pop).
    top: AtomicIsize,
    /// Current buffer generation.
    buffer: AtomicPtr<Buffer<T>>,
    /// Replaced generations, freed on drop (see module docs).
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the protocol moves each element from exactly one thread to
// exactly one thread; T crossing is what requires Send. The deque itself
// is shared by reference across workers.
unsafe impl<T: Send> Send for ClDeque<T> {}
unsafe impl<T: Send> Sync for ClDeque<T> {}

impl<T> Default for ClDeque<T> {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl<T> ClDeque<T> {
    /// Initial slot count of [`ClDeque::default`] — enough that the
    /// fork-join kernels rarely grow, small enough that per-worker
    /// deques stay cache-resident.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty deque whose first buffer holds `cap` slots (rounded up
    /// to a power of two, minimum 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        Self {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::new(cap))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Approximate number of queued elements (exact when quiescent;
    /// a racing snapshot otherwise). Diagnostic only.
    pub fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// Current buffer capacity (owner/diagnostic).
    pub fn capacity(&self) -> usize {
        unsafe { &*self.buffer.load(Ordering::Acquire) }.cap
    }

    /// Owner: publish `v` at the bottom. Lock- and wait-free (growth
    /// allocates, but never blocks on another thread).
    pub fn push(&self, v: T) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buffer.load(Ordering::Relaxed);
        if b - t >= unsafe { &*buf }.cap as isize {
            buf = self.grow(b, t, buf);
        }
        // SAFETY: index b is not live; only the owner writes slots.
        unsafe { (*buf).write(b, v) };
        // Publish the element before the index: a thief that observes
        // bottom = b + 1 must also observe the slot write.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: take the bottom element (LIFO). The only synchronizing
    /// case is the last-element conflict with a thief, resolved by the
    /// `SeqCst` fence + CAS on `top`.
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // The owner's bottom decrement must be globally visible before
        // it reads top, or a concurrent thief and the owner could both
        // take the last element.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t < b {
            // More than one element: the bottom one is ours outright.
            // SAFETY: index b is live and now below every thief's reach.
            return Some(unsafe { (*buf).read(b) });
        }
        if t == b {
            // Last element: race the thieves for it via top.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if won {
                // SAFETY: the CAS excluded every thief from index b.
                return Some(unsafe { (*buf).read(b) });
            }
            return None;
        }
        // Already empty: restore bottom.
        self.bottom.store(b + 1, Ordering::Relaxed);
        None
    }

    /// Thief: claim the top element (FIFO relative to the owner's
    /// pushes).
    pub fn steal(&self) -> Steal<T> {
        self.steal_with(|_| true)
    }

    /// Thief: read the top element, consult `admit`, and only claim it
    /// (CAS on `top`) if admitted. A denied element is left in place and
    /// [`Steal::Denied`] is returned — the §5.3 size-floor hook.
    pub fn steal_with(&self, admit: impl FnOnce(&T) -> bool) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Order the top read before the bottom read: observing a stale
        // (small) bottom after a fresh top can only under-report, never
        // steal a popped element.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.buffer.load(Ordering::Acquire);
        // SAFETY: the raw copy is only *observed* (by `admit` or the
        // caller) after validation. The owner can reuse physical slot
        // `t & mask` of this buffer only once `top` has advanced past
        // `t` (a push at index `b ≡ t (mod cap)` requires the owner to
        // have read `top > t`, else it would have grown into a fresh
        // buffer), and `top` is monotonic — so the seqlock-style
        // re-check below proves the slot was stable for the whole read
        // before anything looks at the bytes. A copy that fails
        // validation is forgotten unobserved.
        let v = unsafe { (*buf).read(t) };
        if self.top.load(Ordering::Acquire) != t {
            // Raced: another thief claimed index t (and the owner may
            // have been overwriting the slot under our read).
            std::mem::forget(v);
            return Steal::Retry;
        }
        if !admit(&v) {
            std::mem::forget(v);
            return Steal::Denied;
        }
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Data(v)
        } else {
            std::mem::forget(v);
            Steal::Retry
        }
    }

    /// Thief: claim up to `max` elements from the top in **one claiming
    /// sequence** — a single probe (one `top`/`bottom`/buffer snapshot,
    /// one fence) followed by back-to-back claims, appending the stolen
    /// elements to `out` in deque (FIFO) order.
    ///
    /// At most **half** the observed queue is taken (rounded up, always
    /// at least one), so a victim with work in flight keeps the majority
    /// of its deque. `admit` is consulted per element in claim order; the
    /// first denial ends the batch with the denied element left in
    /// place — since fork depth grows toward the bottom, the admitted
    /// prefix is exactly the shallowest (§5.3-admissible) run.
    ///
    /// Why each claim still CASes `top` once: the owner pops the
    /// *bottom* without touching `top` (except on the last element), so
    /// a single range-claim `top: t → t+k` could double-take an element
    /// a concurrent owner pop already returned. Claiming one index at a
    /// time — re-reading `bottom` between claims, exactly the
    /// single-steal protocol replayed — keeps exactly-once delivery.
    /// The batch still amortizes what actually dominates small-task
    /// steal cost: the probe scan, the fence pair, the failed-attempt
    /// backoff, and the per-steal bookkeeping (one trace commit, one
    /// counter update for the whole batch) — and after the first
    /// successful claim the `top` line is held exclusive, so the
    /// follow-up CASes are local.
    ///
    /// Returns [`Steal::Data`]`(k)` with `k >= 1` elements appended,
    /// [`Steal::Empty`] / [`Steal::Denied`] / [`Steal::Retry`] (nothing
    /// appended) otherwise.
    pub fn steal_batch_with(
        &self,
        max: usize,
        mut admit: impl FnMut(&T) -> bool,
        out: &mut Vec<T>,
    ) -> Steal<usize> {
        let mut t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        let avail = b - t;
        if avail <= 0 {
            return Steal::Empty;
        }
        // Ceil-half of what we saw, bounded by the caller's cap.
        let want = (((avail + 1) / 2) as usize).min(max.max(1));
        let buf = self.buffer.load(Ordering::Acquire);
        let mut taken = 0usize;
        while taken < want {
            if taken > 0 {
                // The owner pops the bottom without moving `top`, so
                // only a fresh `bottom` read can show the deque drained
                // beneath the rest of our planned batch.
                fence(Ordering::SeqCst);
                if t >= self.bottom.load(Ordering::Acquire) {
                    break;
                }
            }
            // SAFETY: identical to `steal_with` — the copy is observed
            // only after the `top == t` re-check proves the slot was
            // stable for the whole read (a push overwriting logical
            // index `t` in this buffer generation requires the owner to
            // have seen `top > t` first, and growth redirects pushes to
            // a fresh buffer while this one is retired un-freed), and a
            // copy failing any validation is forgotten unobserved.
            let v = unsafe { (*buf).read(t) };
            if self.top.load(Ordering::Acquire) != t {
                std::mem::forget(v);
                break;
            }
            if !admit(&v) {
                std::mem::forget(v);
                if taken == 0 {
                    return Steal::Denied;
                }
                break;
            }
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::mem::forget(v);
                break;
            }
            out.push(v);
            taken += 1;
            t += 1;
        }
        if taken == 0 {
            // There was data, but we lost every race for it.
            Steal::Retry
        } else {
            Steal::Data(taken)
        }
    }

    /// Owner: replace the full buffer with one of twice the capacity,
    /// copying the live window `[t, b)`, and retire the old generation.
    fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let old_ref = unsafe { &*old };
        let new = Buffer::<T>::new(old_ref.cap * 2);
        for i in t..b {
            // SAFETY: live slots are moved as raw copies; the old buffer
            // is retired un-dropped, so no value is duplicated or lost.
            unsafe {
                let v = std::ptr::read(old_ref.slots[(i as usize) & (old_ref.cap - 1)].get());
                std::ptr::write(new.slots[(i as usize) & (new.cap - 1)].get(), v);
            }
        }
        let new = Box::into_raw(new);
        self.buffer.store(new, Ordering::Release);
        self.retired.lock().expect("retire list poisoned").push(old);
        new
    }
}

impl<T> Drop for ClDeque<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent owner or thieves. Drop live elements,
        // then free the current and retired buffers (retired slots hold
        // only already-moved copies — never dropped).
        let b = *self.bottom.get_mut();
        let t = *self.top.get_mut();
        let buf = *self.buffer.get_mut();
        for i in t..b {
            unsafe {
                drop((*buf).read(i));
            }
        }
        unsafe {
            drop(Box::from_raw(buf));
        }
        for p in self
            .retired
            .get_mut()
            .expect("retire list poisoned")
            .drain(..)
        {
            unsafe {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// Single-threaded unit tests: every path of the protocol that does not
/// need a second thread, kept Miri-clean (CI runs
/// `cargo miri test -p hbp-sched --lib cl_deque::`).
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn owner_push_pop_is_lifo() {
        let d = ClDeque::with_capacity(8);
        for i in 0..5u64 {
            d.push(i);
        }
        for i in (0..5u64).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None, "pop on empty stays empty");
    }

    #[test]
    fn steal_takes_the_top_fifo() {
        let d = ClDeque::with_capacity(8);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        assert_eq!(d.pop(), Some(3), "owner still pops the bottom");
        assert_eq!(d.steal(), Steal::Data(2));
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_steal_tracks_a_model() {
        use std::collections::VecDeque;
        let d = ClDeque::with_capacity(4);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = 0u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 3 {
                0 => {
                    d.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => assert_eq!(d.pop(), model.pop_back()),
                _ => {
                    let want = model.pop_front();
                    match d.steal() {
                        Steal::Data(v) => assert_eq!(Some(v), want),
                        Steal::Empty => assert_eq!(want, None),
                        s => panic!("single-threaded steal cannot be {s:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn grows_past_the_initial_capacity_and_keeps_order() {
        let d = ClDeque::with_capacity(2);
        let n = 1000u64;
        for i in 0..n {
            d.push(i);
        }
        assert!(d.capacity() >= n as usize, "buffer grew");
        assert_eq!(d.len_hint(), n as usize);
        // Steal half from the top (0..), pop the rest from the bottom.
        for i in 0..n / 2 {
            assert_eq!(d.steal(), Steal::Data(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.len_hint(), 0);
    }

    #[test]
    fn growth_with_wrapped_window_preserves_the_live_elements() {
        // Advance top so the live window wraps the circular buffer, then
        // force a growth: the copy must be window-relative, not raw.
        let d = ClDeque::with_capacity(4);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        for i in 4..9u64 {
            d.push(i); // crosses the old capacity → grow with offset top
        }
        for i in 2..9u64 {
            assert_eq!(d.steal(), Steal::Data(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_with_denied_leaves_the_element_in_place() {
        let d = ClDeque::with_capacity(4);
        d.push(10u64);
        d.push(20u64);
        assert_eq!(d.steal_with(|&v| v >= 15), Steal::Denied);
        assert_eq!(d.len_hint(), 2, "denied element not consumed");
        assert_eq!(d.steal_with(|&v| v >= 5), Steal::Data(10));
        assert_eq!(d.steal_with(|&v| v >= 25), Steal::Denied);
        assert_eq!(d.pop(), Some(20), "owner is never filtered");
    }

    #[test]
    fn steal_batch_takes_ceil_half_in_fifo_order() {
        let d = ClDeque::with_capacity(16);
        for i in 0..8u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // 8 queued → ceil-half is 4, under a generous cap.
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(d.len_hint(), 4);
        // 4 left → ceil-half is 2, but the cap binds first.
        out.clear();
        assert_eq!(d.steal_batch_with(1, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![4]);
        // The owner still pops its (LIFO) bottom underneath the batches.
        assert_eq!(d.pop(), Some(7));
        out.clear();
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn steal_batch_on_one_element_and_empty() {
        let d = ClDeque::with_capacity(4);
        let mut out: Vec<u64> = Vec::new();
        assert_eq!(d.steal_batch_with(8, |_| true, &mut out), Steal::Empty);
        d.push(42);
        // One element: ceil-half of 1 is 1 — a batch never observes an
        // element it cannot take.
        assert_eq!(d.steal_batch_with(8, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![42]);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_batch_admission_stops_at_the_first_denial() {
        let d = ClDeque::with_capacity(16);
        for i in 0..8u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // Admit only values < 2: the batch claims the admitted prefix
        // (deque order 0, 1) and leaves the denied element in place.
        assert_eq!(
            d.steal_batch_with(8, |&v| v < 2, &mut out),
            Steal::Data(2),
            "admitted prefix claimed"
        );
        assert_eq!(out, vec![0, 1]);
        assert_eq!(d.len_hint(), 6);
        // First element denied → Denied, nothing claimed.
        out.clear();
        assert_eq!(d.steal_batch_with(8, |&v| v > 100, &mut out), Steal::Denied);
        assert!(out.is_empty());
        assert_eq!(d.len_hint(), 6);
    }

    #[test]
    fn steal_batch_with_growth_and_wrapped_window() {
        // Same geometry as the single-steal growth test: the live
        // window wraps the circular buffer before growing.
        let d = ClDeque::with_capacity(4);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        for i in 4..9u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // 7 live (2..=8) → ceil-half is 4.
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(4));
        assert_eq!(out, vec![2, 3, 4, 5]);
        for i in (6..9u64).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_batch_drop_semantics_no_leak() {
        let live = Arc::new(AtomicUsize::new(0));
        {
            let d = ClDeque::with_capacity(2);
            for _ in 0..20 {
                live.fetch_add(1, Ordering::SeqCst);
                d.push(Probe(Arc::clone(&live)));
            }
            let mut out = Vec::new();
            assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(10));
            drop(out); // stolen probes dropped by the thief
                       // 10 probes still queued when the deque drops.
        }
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "every element dropped exactly once across batch + deque drop"
        );
    }

    /// Drop-count probe: decrements on drop, so leaks and double-drops
    /// both show up in the final count.
    struct Probe(Arc<AtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_semantics_no_leak_no_double_drop() {
        let live = Arc::new(AtomicUsize::new(0));
        {
            let d = ClDeque::with_capacity(2);
            for _ in 0..37 {
                live.fetch_add(1, Ordering::SeqCst);
                d.push(Probe(Arc::clone(&live))); // forces several growths
            }
            for _ in 0..10 {
                drop(d.pop());
            }
            let Steal::Data(p) = d.steal() else {
                panic!("non-empty deque must yield a steal");
            };
            drop(p);
            // 26 elements still queued when the deque drops.
        }
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "every element dropped exactly once (incl. retired buffers)"
        );
    }

    #[test]
    fn empty_deque_steals_report_empty() {
        let d: ClDeque<u64> = ClDeque::default();
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.steal_with(|_| true), Steal::Empty);
        assert_eq!(d.len_hint(), 0);
        assert_eq!(d.capacity(), ClDeque::<u64>::DEFAULT_CAPACITY);
    }

    #[test]
    fn retiring_owner_races_a_thief_without_loss_or_duplication() {
        // The elastic-pool retirement protocol (runtime::thief_main), in
        // miniature: the owner stops treating the deque as its own,
        // yields so a concurrent thief can drain it through the normal
        // top-CAS path, then claims the leftovers itself — here the
        // thief's admission filter makes the second half of the ids
        // thief-invisible, the same way the cross-domain depth floor
        // does in the runtime. Exactly-once must survive the owner's
        // pop-bottom racing the thief's steal-top. Small on purpose:
        // CI runs this module under Miri.
        use std::sync::atomic::AtomicU64;
        const N: u64 = 128;
        let d = Arc::new(ClDeque::with_capacity(8));
        for i in 1..=N {
            d.push(i);
        }
        let claimed_sum = Arc::new(AtomicU64::new(0));
        let claimed_n = Arc::new(AtomicUsize::new(0));
        let (td, ts, tn) = (
            Arc::clone(&d),
            Arc::clone(&claimed_sum),
            Arc::clone(&claimed_n),
        );
        let thief = std::thread::spawn(move || {
            let mut denied = 0u32;
            loop {
                match td.steal_with(|&v| v <= N / 2) {
                    Steal::Data(v) => {
                        denied = 0;
                        ts.fetch_add(v, Ordering::Relaxed);
                        tn.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => {}
                    Steal::Denied => {
                        denied += 1;
                        if denied > 8 {
                            break; // admission wall: leave it to the owner
                        }
                        std::thread::yield_now();
                    }
                    Steal::Empty => break,
                }
            }
        });
        // Retirement: a bounded yield window for the thief, then the
        // owner self-executes whatever is left (the RETIRE_DRAIN_SPINS
        // path — admission-denied tasks can never strand here).
        for _ in 0..32 {
            if d.len_hint() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        while let Some(v) = d.pop() {
            claimed_sum.fetch_add(v, Ordering::Relaxed);
            claimed_n.fetch_add(1, Ordering::Relaxed);
        }
        thief.join().unwrap();
        assert_eq!(
            claimed_n.load(Ordering::Relaxed),
            N as usize,
            "every task claimed exactly once across thief + retiring owner"
        );
        assert_eq!(
            claimed_sum.load(Ordering::Relaxed),
            N * (N + 1) / 2,
            "the claim multiset is exactly 1..=N — no loss, no duplication"
        );
    }
}
