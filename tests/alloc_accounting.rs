//! Allocation-accounting regression tests for the native SPMS,
//! list-ranking and FFT hot paths.
//!
//! PR 7 replaced per-bucket scratch `Vec`s (and `sort_unstable`'s hidden
//! per-call temp buffer) with one ping-pong arena sized by `arena_len`,
//! carved into disjoint line-aligned windows. The point of that design is
//! allocation behaviour: the sort makes O(1) large allocations per
//! super-recursion level — roughly O(log log n) total — instead of the
//! O(√n) per-bucket/per-chunk pattern the old code had (at n = 2^16 that
//! was ~256 chunk-sort temps plus ~3 Vecs for each of ~256 buckets).
//!
//! A counting `GlobalAlloc` wrapper pins that: running `par_spms` on
//! n = 2^16 pairs must stay under a small constant number of *large*
//! (≥ 4 KiB) allocations. Small allocations are ignored — the vendored
//! rayon spawns scoped threads whose bookkeeping (thread packets, join
//! handles) allocates a few hundred bytes each, and those are not what
//! this test gates. A regression back to per-bucket buffers trips the
//! bound by an order of magnitude (hundreds of ≥ 4 KiB allocations), so
//! the margin below is generous without being blind.
//!
//! List ranking gets the same treatment: its sublist ranker allocates a
//! fixed handful of buffers whatever `n` is, where pointer jumping made
//! two fresh arrays per round, 2·⌈log₂ n⌉ + 2 in all.
//!
//! So does the FFT: one twiddle table and one scratch buffer serve its
//! whole six-step recursion, where a fresh buffer per sub-FFT made
//! hundreds of large allocations at n = 2^16.
//!
//! The counter is global, so the tests take turns: each holds `SERIAL`
//! for its whole body.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Allocations at or above this size count toward the budget. The arena,
/// the flattened cut/boundary tables, and the sample vector all clear it
/// at n = 2^16; thread-spawn bookkeeping stays well under it.
const LARGE: usize = 4096;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow crossing the threshold is a fresh large allocation from
        // the accounting point of view (Vec doubling into large sizes).
        if new_size >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with the counter armed and return its result and how many
/// large allocations it made.
fn count_large<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    (r, LARGE_ALLOCS.load(Ordering::SeqCst))
}

fn keyed(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut s = seed | 1;
    (0..n as u64)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s, i)
        })
        .collect()
}

#[test]
fn par_spms_makes_constant_large_allocations_not_per_bucket() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 16;
    let mut data = keyed(n, 0x5eed);
    let mut expect: Vec<(u64, u64)> = data.clone();
    expect.sort(); // payloads are unique, so a full sort is the oracle

    let ((), large) = count_large(|| hbp_core::algos::par::par_spms(&mut data));

    assert_eq!(data, expect, "sorted output before counting anything");
    // One super-recursion level at n = 2^16 (chunks of 256 fall to the
    // sequential cutoff): the arena plus a handful of flattened tables.
    // The old per-bucket shape costs hundreds here.
    assert!(
        large <= 32,
        "par_spms(n=2^16) made {large} large (>= {LARGE} B) allocations; \
         expected O(1) per super-level — per-bucket scratch is back"
    );
    // Guard the guard: the counter is actually armed and counting (the
    // arena alone is a multi-MB allocation).
    assert!(
        large >= 1,
        "counter saw no large allocations — test is inert"
    );
}

#[test]
fn par_list_rank_makes_the_same_few_large_allocations_at_any_n() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut counts = Vec::new();
    for n in [1 << 14, 1 << 16] {
        let succ = hbp_core::algos::gen::random_list(n, 0x5eed);
        let want = hbp_core::algos::oracle::list_rank(&succ);
        let (got, large) = count_large(|| hbp_core::algos::par::par_list_rank(&succ));
        assert_eq!(got, want, "ranks at n = {n} before counting anything");
        counts.push(large);
    }
    // The node tags, which become the output, and the ruler records.
    // Pointer jumping made 30 at n = 2^14 and 34 at n = 2^16.
    assert_eq!(
        counts[0], counts[1],
        "par_list_rank's large (>= {LARGE} B) allocations grow with n: {counts:?}"
    );
    assert!(
        (1..=4).contains(&counts[0]),
        "par_list_rank made {} large allocations; expected a fixed handful",
        counts[0]
    );
}

#[test]
fn par_fft_makes_the_same_few_large_allocations_at_any_n() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut counts = Vec::new();
    for n in [1 << 14, 1 << 16] {
        let x: Vec<hbp_core::model::Cx> = (0..n)
            .map(|i| hbp_core::model::Cx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut y = x.clone();
        let ((), large) = count_large(|| hbp_core::algos::par::par_fft(&mut y));
        // Bin 1 by direct summation: the transform really ran.
        let want = x
            .iter()
            .enumerate()
            .fold(hbp_core::model::Cx::default(), |acc, (j, &v)| {
                acc + v * hbp_core::model::Cx::cis(-std::f64::consts::TAU * j as f64 / n as f64)
            });
        assert!(
            (y[1] - want).abs() < 1e-6,
            "bin 1 at n = {n} before counting anything"
        );
        counts.push(large);
    }
    // The twiddle table and the scratch buffer.
    assert_eq!(
        counts[0], counts[1],
        "par_fft's large (>= {LARGE} B) allocations grow with n: {counts:?}"
    );
    assert!(
        (1..=3).contains(&counts[0]),
        "par_fft made {} large allocations; expected the table and one scratch buffer",
        counts[0]
    );
}
