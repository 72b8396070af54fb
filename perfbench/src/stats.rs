//! Order statistics and the small pieces of arithmetic every workload
//! shares: percentiles, the tail rule, and open-loop latency from the
//! due time.

/// Percentile `q` (0..=100) of an ascending sample, interpolating
/// linearly between the two closest ranks (Hyndman–Fan type 7, the
/// definition spreadsheets and NumPy use by default).
///
/// Panics on an empty sample: every caller measures at least once.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile {q} outside 0..=100");
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// How many samples must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the value ranked
/// `TAIL_BEYOND + 1` from the top. Returns `(percentile, value)`, or
/// `None` when that rank is at or below the median (too few samples for
/// a tail distinct from the p50).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 2 * TAIL_BEYOND + 1 {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some((100.0 * rank as f64 / (n - 1) as f64, sorted[rank]))
}

/// Completion latency of an open-loop request measured from the time it
/// was *due* (its scheduled arrival), not from when the generator got
/// round to submitting it: `arrival + latency − due`. The serve layer
/// times `latency_ns` from enqueue, so a generator stall before the
/// submit is added back here. All values are nanoseconds on the
/// scenario's clock.
pub fn latency_from_due_ns(due_ns: u64, arrival_ns: u64, latency_ns: u64) -> u64 {
    (arrival_ns + latency_ns).saturating_sub(due_ns)
}

/// How late the generator submitted a request: `arrival − due`.
pub fn late_ns(due_ns: u64, arrival_ns: u64) -> u64 {
    arrival_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((percentile(&s, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_nothing_is_a_bug() {
        percentile(&[], 50.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, v) = tail(&s).expect("100 samples have a tail");
        assert_eq!(v, 89.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert!((pct - 100.0 * 89.0 / 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_omitted_when_it_would_be_the_median() {
        let s: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        let s: Vec<f64> = (0..22).map(f64::from).collect();
        let (pct, v) = tail(&s).expect("22 samples have a tail");
        assert!(pct > 50.0 && v == 11.0);
    }

    #[test]
    fn latency_from_due_adds_back_the_generator_stall() {
        // Due at 1000 ns, submitted 300 ns late, served in 500 ns after
        // enqueue: the request completed 800 ns after it was due.
        assert_eq!(latency_from_due_ns(1_000, 1_300, 500), 800);
        assert_eq!(late_ns(1_000, 1_300), 300);
        // On time: nothing to add back.
        assert_eq!(latency_from_due_ns(1_000, 1_000, 500), 500);
        assert_eq!(late_ns(1_000, 1_000), 0);
    }
}
