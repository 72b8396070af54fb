//! **W1b — real-machine false sharing**: the §1 phenomenon on actual
//! silicon.
//!
//! * `counters/adjacent` vs `counters/padded`: two threads incrementing
//!   counters that share (or don't share) a cache line;
//! * `writes/interleaved` vs `writes/blocked`: two threads writing
//!   word-interleaved vs block-partitioned halves of one array.
//!
//! ```text
//! cargo bench -p hbp-bench --bench false_sharing
//! ```
//!
//! Under `cargo bench` (which passes `--bench`) each case gets one warm-up
//! call and [`SAMPLES`] timed calls, and the min and median are printed;
//! any other invocation (`cargo test --benches`) runs each case once as a
//! smoke test.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Timed calls per case under `--bench`.
const SAMPLES: usize = 20;

#[repr(align(128))]
struct Padded(AtomicU64);

/// Two threads, one counter each, `iters` relaxed increments apiece.
fn bump_both(slots: [&AtomicU64; 2], iters: u64) {
    std::thread::scope(|s| {
        for slot in slots {
            s.spawn(move || {
                for _ in 0..iters {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
}

/// Two threads writing the words of a fresh `n`-word array; thread `t`
/// writes the indices `part(t)` yields.
fn write_halves<I: Iterator<Item = usize>>(n: usize, part: impl Fn(usize) -> I + Sync) -> u64 {
    let arr: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (arr, part) = (&arr, &part);
            s.spawn(move || {
                for i in part(t) {
                    arr[i].store(i as u64, Ordering::Relaxed);
                }
            });
        }
    });
    arr[0].load(Ordering::Relaxed)
}

/// Time `f` (or smoke-run it once) and print one line for `name`.
fn case<O>(name: &str, sampled: bool, mut f: impl FnMut() -> O) {
    black_box(f());
    if !sampled {
        println!("bench {name}: ok (smoke)");
        return;
    }
    let mut ns: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    println!(
        "bench {name:<40} min {:>12} ns   median {:>12} ns   ({SAMPLES} samples)",
        ns[0],
        ns[SAMPLES / 2]
    );
}

fn main() {
    let sampled = std::env::args().any(|a| a == "--bench");
    let iters = 200_000u64;
    case("counters/adjacent", sampled, || {
        let slots = [AtomicU64::new(0), AtomicU64::new(0)];
        bump_both([&slots[0], &slots[1]], iters);
        slots[0].load(Ordering::Relaxed)
    });
    case("counters/padded", sampled, || {
        let slots = [Padded(AtomicU64::new(0)), Padded(AtomicU64::new(0))];
        bump_both([&slots[0].0, &slots[1].0], iters);
        slots[0].0.load(Ordering::Relaxed)
    });

    let n = 1 << 16;
    // Word-interleaved halves: every block is shared between the threads.
    case("writes/interleaved", sampled, || {
        write_halves(n, |t| (t..n).step_by(2))
    });
    // Block-partitioned halves: no block is ever shared (HBP-style).
    case("writes/blocked", sampled, || {
        write_halves(n, |t| (t * n / 2)..((t + 1) * n / 2))
    });
}
