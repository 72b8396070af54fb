//! Cross-thread stress tests of the lock-free Chase-Lev deque: steal
//! storms, growth under contention, and proptest linearizability-style
//! accounting — every pushed item is popped or stolen **exactly once**.
//!
//! (The single-threaded protocol paths live as Miri-clean unit tests in
//! `src/cl_deque.rs`; these tests exercise the actual cross-thread
//! races, which Miri's single-threaded scope cannot.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hbp_sched::cl_deque::{ClDeque, Steal};
use proptest::prelude::*;

/// One steal-storm round: the owner pushes `n` items (popping a few on
/// the way, per `pop_every`), `thieves` threads hammer `steal` until the
/// deque drains, and every item must surface exactly once.
///
/// Returns (owner-consumed, per-thief-consumed) counts for assertions
/// beyond the multiset check.
fn storm(n: u64, thieves: usize, initial_cap: usize, pop_every: u64) -> (usize, Vec<usize>) {
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(initial_cap));
    let done = Arc::new(AtomicBool::new(false));
    let mut seen = vec![0u32; n as usize];

    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    loop {
                        match deque.steal() {
                            Steal::Data(v) => got.push(v),
                            Steal::Retry => {}
                            Steal::Empty | Steal::Denied => {
                                if done.load(Ordering::Acquire) {
                                    // Drain once more: the owner may have
                                    // pushed between our probe and the flag.
                                    match deque.steal() {
                                        Steal::Data(v) => got.push(v),
                                        Steal::Retry => continue,
                                        _ => break,
                                    }
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                if let Some(v) = deque.pop() {
                    owner.push(v);
                }
            }
        }
        // Owner drains what the thieves left behind.
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let thief_got: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, thief_got)
    });

    for &v in owner_got.iter().chain(thief_got.iter().flatten()) {
        seen[v as usize] += 1;
    }
    let missing: Vec<u64> = (0..n).filter(|&i| seen[i as usize] == 0).collect();
    let duped: Vec<u64> = (0..n).filter(|&i| seen[i as usize] > 1).collect();
    assert!(
        missing.is_empty() && duped.is_empty(),
        "items lost {missing:?} / duplicated {duped:?} (n={n}, thieves={thieves}, cap={initial_cap})"
    );
    (owner_got.len(), thief_got.iter().map(Vec::len).collect())
}

#[test]
fn steal_storm_every_item_exactly_once() {
    let (owner, thieves) = storm(100_000, 3, 64, 0);
    assert_eq!(owner + thieves.iter().sum::<usize>(), 100_000);
}

#[test]
fn steal_storm_with_owner_pops_interleaved() {
    storm(50_000, 4, 64, 7);
}

#[test]
fn steal_storm_under_forced_growth() {
    // Initial capacity 2: the owner grows the buffer dozens of times
    // while thieves race on retired generations.
    storm(20_000, 3, 2, 0);
}

#[test]
fn steal_storm_single_thief_tiny() {
    storm(1_000, 1, 2, 3);
}

#[test]
fn concurrent_filtered_steals_never_take_denied_items() {
    // Thieves only admit even values; odd values must all remain for
    // the owner. Exercises the read-admit-CAS window under contention.
    let n = 20_000u64;
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));
    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match deque.steal_with(|v| v % 2 == 0) {
                            Steal::Data(v) => got.push(v),
                            _ => std::hint::spin_loop(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
        }
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let thief_got: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, thief_got)
    });
    for v in thief_got.iter().flatten() {
        assert_eq!(v % 2, 0, "thieves must only ever receive admitted items");
    }
    let total = owner_got.len() + thief_got.iter().map(Vec::len).sum::<usize>();
    assert_eq!(total, n as usize, "every item consumed exactly once");
    let odd_to_owner = owner_got.iter().filter(|&&v| v % 2 == 1).count();
    assert_eq!(
        odd_to_owner,
        (n / 2) as usize,
        "all odd items reach the owner"
    );
}

/// Batched-steal storm: like `storm`, but thieves call
/// `steal_batch_with(max, ..)` and may carry several items home per
/// claiming sequence. Exactly-once must survive batches racing each
/// other, the owner's bottom pops, and buffer growth mid-batch.
///
/// With `preload`, all `n` items are pushed before any thief starts and
/// the owner neither pushes nor pops while the thieves drain the deque.
///
/// Returns (owner-consumed, per-thief batch sizes) so callers can also
/// assert batch geometry (never more than `max`, never empty on Data).
fn batch_storm(
    n: u64,
    thieves: usize,
    max: usize,
    initial_cap: usize,
    pop_every: u64,
    preload: bool,
) -> (usize, Vec<Vec<usize>>) {
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(initial_cap));
    if preload {
        for i in 0..n {
            deque.push(i);
        }
    }
    let done = Arc::new(AtomicBool::new(false));
    let mut seen = vec![0u32; n as usize];

    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    let mut batches: Vec<usize> = Vec::new();
                    let mut buf: Vec<u64> = Vec::new();
                    loop {
                        match deque.steal_batch_with(max, |_| true, &mut buf) {
                            Steal::Data(k) => {
                                assert_eq!(k, buf.len(), "count matches delivered items");
                                assert!(k >= 1 && k <= max, "batch size within [1, max]");
                                batches.push(k);
                                got.append(&mut buf);
                            }
                            Steal::Retry => {}
                            Steal::Empty | Steal::Denied => {
                                assert!(buf.is_empty(), "no items delivered without Data");
                                if done.load(Ordering::Acquire) {
                                    match deque.steal_batch_with(max, |_| true, &mut buf) {
                                        Steal::Data(k) => {
                                            batches.push(k);
                                            got.append(&mut buf);
                                        }
                                        Steal::Retry => continue,
                                        _ => break,
                                    }
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    (got, batches)
                })
            })
            .collect();

        let mut owner: Vec<u64> = Vec::new();
        if !preload {
            for i in 0..n {
                deque.push(i);
                if pop_every > 0 && i % pop_every == pop_every - 1 {
                    if let Some(v) = deque.pop() {
                        owner.push(v);
                    }
                }
            }
            while let Some(v) = deque.pop() {
                owner.push(v);
            }
        }
        done.store(true, Ordering::Release);
        let joined: Vec<(Vec<u64>, Vec<usize>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, joined)
    });

    for &v in owner_got
        .iter()
        .chain(thief_got.iter().flat_map(|(g, _)| g))
    {
        seen[v as usize] += 1;
    }
    let missing: Vec<u64> = (0..n).filter(|&i| seen[i as usize] == 0).collect();
    let duped: Vec<u64> = (0..n).filter(|&i| seen[i as usize] > 1).collect();
    assert!(
        missing.is_empty() && duped.is_empty(),
        "items lost {missing:?} / duplicated {duped:?} \
         (n={n}, thieves={thieves}, max={max}, cap={initial_cap})"
    );
    (
        owner_got.len(),
        thief_got.into_iter().map(|(_, b)| b).collect(),
    )
}

#[test]
fn batched_steal_storm_every_item_exactly_once() {
    let (owner, batches) = batch_storm(100_000, 3, 8, 64, 0, false);
    let stolen: usize = batches.iter().flatten().sum();
    assert_eq!(owner + stolen, 100_000);
}

#[test]
fn batched_steal_storm_with_owner_pops_and_growth() {
    // Capacity 2 forces dozens of grows while batches are mid-claim;
    // owner pops race the bottom end of the same windows.
    batch_storm(30_000, 4, 8, 2, 5, false);
}

#[test]
fn batched_storm_actually_batches() {
    // One thief, no owner pops after the fill: with the deque pre-loaded
    // before the thief starts and max=8, every steal sees a long queue,
    // so at least one multi-item batch must occur — guards
    // against a regression where steal_batch_with degenerates to
    // single-steal (the exactly-once tests above would still pass).
    let (_, batches) = batch_storm(50_000, 1, 8, 64, 0, true);
    assert!(
        batches[0].iter().any(|&k| k > 1),
        "50k items / 1 thief / max=8 never produced a multi-item batch: {:?}",
        &batches[0][..batches[0].len().min(32)]
    );
}

#[test]
fn batched_steals_respect_admission_prefix() {
    // Thieves admit only values below a horizon; everything else must
    // fall through to the owner, batches or not.
    let n = 20_000u64;
    let horizon = 10_000u64;
    let deque: Arc<ClDeque<u64>> = Arc::new(ClDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));
    let (owner_got, thief_got) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    let mut buf: Vec<u64> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match deque.steal_batch_with(6, |&v| v < horizon, &mut buf) {
                            Steal::Data(_) => got.append(&mut buf),
                            _ => std::hint::spin_loop(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut owner: Vec<u64> = Vec::new();
        for i in 0..n {
            deque.push(i);
        }
        while let Some(v) = deque.pop() {
            owner.push(v);
        }
        done.store(true, Ordering::Release);
        let thief_got: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (owner, thief_got)
    });
    for v in thief_got.iter().flatten() {
        assert!(*v < horizon, "batched thieves only receive admitted items");
    }
    let total = owner_got.len() + thief_got.iter().map(Vec::len).sum::<usize>();
    assert_eq!(total, n as usize, "every item consumed exactly once");
    let beyond_to_owner = owner_got.iter().filter(|&&v| v >= horizon).count();
    assert_eq!(
        beyond_to_owner,
        (n - horizon) as usize,
        "all non-admitted items reach the owner"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearizability-style accounting under randomized geometry: for
    /// any (n, thieves, capacity, pop cadence), every pushed job is
    /// popped or stolen exactly once — no loss, no duplication, across
    /// growth and the last-element CAS races.
    #[test]
    fn storm_accounting_holds_for_any_geometry(
        n in 1u64..4000,
        thieves in 1usize..5,
        cap_pow in 1u32..7,
        pop_every in 0u64..9,
    ) {
        storm(n, thieves, 1usize << cap_pow, pop_every);
    }

    /// Same accounting with batched thieves over randomized batch caps:
    /// exactly-once holds for any (n, thieves, max, capacity, cadence),
    /// including max=1 (degenerate single-steal) and caps larger than
    /// the deque ever holds.
    #[test]
    fn batched_storm_accounting_holds_for_any_geometry(
        n in 1u64..4000,
        thieves in 1usize..5,
        max in 1usize..13,
        cap_pow in 1u32..7,
        pop_every in 0u64..9,
    ) {
        batch_storm(n, thieves, max, 1usize << cap_pow, pop_every, false);
    }
}
