//! The `sim-replay` workload: one thread replays every Table-1 row of
//! the registry at table1's small size. Each round builds each row's
//! recorded computation, then replays it under PWS and sequentially on
//! the default simulated machine. Only the model builder, the simulator
//! and the cache model run; no native layer does.

use std::time::Instant;

use hbp_core::trace::{ClockDomain, TraceSink};
use hbp_core::{
    registry, run, run_sequential, run_traced, AlgoSpec, BuildConfig, MachineConfig, Policy,
    SizeKind,
};

use crate::record::{Record, Spans};
use crate::stats::median;

/// How many times the workload is set up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Rounds measured even when the time is up, so the counts are always
/// compared across rounds.
const MIN_ROUNDS: usize = 3;

/// table1's small instance: 2^11 elements, or side 16.
fn size(row: &AlgoSpec) -> usize {
    match row.size {
        SizeKind::Linear => 1 << 11,
        SizeKind::MatrixSide => 16,
    }
}

/// The exact counts one row yields; they must repeat in every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    work: u64,
    plain_misses: u64,
    block_misses: u64,
    steals: u64,
    seq_misses: u64,
}

/// One round's timings (ms) and per-row counts.
struct Round {
    build_ms: f64,
    pws_ms: f64,
    seq_ms: f64,
    /// Accesses replayed (PWS + sequential).
    accesses: u64,
    counts: Vec<Counts>,
    failed: u64,
}

impl Round {
    fn ms(&self) -> f64 {
        self.build_ms + self.pws_ms + self.seq_ms
    }
}

/// Build and replay every row once. A row fails when a replay's work
/// differs from the computation's, or (given `reference`) when its
/// counts differ from the reference round's. `traced` replays PWS with
/// a trace sink attached and records the benchmark's spans.
fn round(
    rows: &[AlgoSpec],
    machine: MachineConfig,
    seed: u64,
    reference: Option<&[Counts]>,
    mut traced: Option<(&mut Spans, &mut u64)>,
) -> Round {
    let mut r = Round {
        build_ms: 0.0,
        pws_ms: 0.0,
        seq_ms: 0.0,
        accesses: 0,
        counts: Vec::with_capacity(rows.len()),
        failed: 0,
    };
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    for (i, row) in rows.iter().enumerate() {
        let t0 = Instant::now();
        let comp = (row.build)(
            size(row),
            BuildConfig::with_block(machine.block_words),
            seed,
        );
        let t1 = Instant::now();
        let pws = match traced {
            Some(_) => {
                let sink = TraceSink::new(machine.p, ClockDomain::Virtual);
                run_traced(&comp, machine, Policy::Pws, &sink)
            }
            None => run(&comp, machine, Policy::Pws),
        };
        let t2 = Instant::now();
        let seq = run_sequential(&comp, machine);
        let t3 = Instant::now();
        r.build_ms += ms(t0, t1);
        r.pws_ms += ms(t1, t2);
        r.seq_ms += ms(t2, t3);
        r.accesses += pws.work + seq.work;
        let c = Counts {
            work: pws.work,
            plain_misses: pws.plain_misses(),
            block_misses: pws.block_misses(),
            steals: pws.steals,
            seq_misses: seq.q_misses,
        };
        let same = reference.is_none_or(|rf| rf.get(i) == Some(&c));
        if pws.work != comp.work() || seq.work != comp.work() || !same {
            r.failed += 1;
        }
        r.counts.push(c);
        if let Some((spans, id)) = traced.as_mut() {
            spans.add(**id, "build", row.name, t0, t1);
            spans.add(**id, "sim.pws", row.name, t1, t2);
            spans.add(**id, "sim.seq", row.name, t2, t3);
            **id += 1;
        }
    }
    r
}

/// Resolve the machine and the registry, and build every row once (the
/// warm-up), [`SETUP_REPS`] times. Returns the rows, the machine and
/// the median set-up time in seconds.
fn set_up(seed: u64) -> (Vec<AlgoSpec>, MachineConfig, f64) {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let machine = MachineConfig::default_machine();
        for row in registry() {
            let comp = (row.build)(
                size(&row),
                BuildConfig::with_block(machine.block_words),
                seed,
            );
            std::hint::black_box(comp.work());
        }
        times.push(t.elapsed().as_secs_f64());
    }
    (registry(), MachineConfig::default_machine(), median(&times))
}

/// The untraced run: rounds until the time is up; end-to-end metrics.
pub fn run_rounds(seed: u64, seconds: f64, rec: &mut Record) {
    let (rows, machine, setup) = set_up(seed);
    rec.metric("setup_s", setup, "s");
    let first = round(&rows, machine, seed, None, None);
    rec.count(rows.len() as u64, first.failed);
    let mut rounds = vec![first.ms()];
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || rounds.len() < MIN_ROUNDS {
        let r = round(&rows, machine, seed, Some(&first.counts), None);
        rec.count(rows.len() as u64, r.failed);
        rounds.push(r.ms());
    }
    rec.metric("op_cost_ms", median(&rounds), "ms");
    // At about 1.65 s a round, a run has too few rounds for a tail with
    // ten rounds beyond it that sits above the median.
    rec.note(format!(
        "no round tail noted: {} rounds leave no tail above the median",
        rounds.len()
    ));
}

/// The traced run: untraced and traced rounds alternate; per-layer
/// metrics from the untraced ones, the exact counts, and the cost of
/// tracing the PWS replay.
pub fn run_traced_rounds(seed: u64, seconds: f64, rec: &mut Record, spans: &mut Spans) {
    let (rows, machine, _) = set_up(seed);
    let first = round(&rows, machine, seed, None, None);
    rec.count(rows.len() as u64, first.failed);
    let mut plain = vec![first];
    let mut traced_ms = Vec::new();
    let mut id = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || traced_ms.len() < MIN_ROUNDS {
        let r = round(&rows, machine, seed, Some(&plain[0].counts), None);
        rec.count(rows.len() as u64, r.failed);
        plain.push(r);
        let r = round(
            &rows,
            machine,
            seed,
            Some(&plain[0].counts),
            Some((&mut *spans, &mut id)),
        );
        rec.count(rows.len() as u64, r.failed);
        traced_ms.push(r.ms());
    }
    let col = |f: fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    rec.metric("model.build_ms", col(|r| r.build_ms), "ms");
    rec.metric("sim.pws_ms", col(|r| r.pws_ms), "ms");
    rec.metric("sim.seq_ms", col(|r| r.seq_ms), "ms");
    rec.metric(
        "sim.maccess_per_s",
        col(|r| r.accesses as f64 / ((r.pws_ms + r.seq_ms) * 1e3)),
        "Macc/s",
    );
    let sum = |f: fn(&Counts) -> u64| plain[0].counts.iter().map(f).sum::<u64>() as f64;
    rec.metric("sim.work", sum(|c| c.work), "count");
    rec.metric("sim.plain_misses", sum(|c| c.plain_misses), "count");
    rec.metric("sim.block_misses", sum(|c| c.block_misses), "count");
    rec.metric("sim.steals", sum(|c| c.steals), "count");
    rec.note(format!(
        "sim block misses {:.0} beside steals x B = {:.0} x {} = {:.0}",
        sum(|c| c.block_misses),
        sum(|c| c.steals),
        machine.block_words,
        sum(|c| c.steals) * machine.block_words as f64
    ));
    let overhead = median(&traced_ms) / col(Round::ms) - 1.0;
    rec.metric("trace.overhead_frac.sim-replay", overhead, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheapest rows keep the test fast.
    fn small_rows() -> Vec<AlgoSpec> {
        registry()
            .into_iter()
            .filter(|r| matches!(r.name, "MT" | "RM to BI" | "Scans (M-Sum)"))
            .collect()
    }

    #[test]
    fn replayed_counts_repeat_across_rounds() {
        let rows = small_rows();
        let machine = MachineConfig::default_machine();
        let first = round(&rows, machine, 9, None, None);
        assert_eq!(first.failed, 0);
        let again = round(&rows, machine, 9, Some(&first.counts), None);
        assert_eq!(again.failed, 0);
        assert_eq!(again.counts, first.counts);
    }

    #[test]
    fn a_count_that_differs_from_the_reference_is_a_failure() {
        let rows = small_rows();
        let machine = MachineConfig::default_machine();
        let mut reference = round(&rows, machine, 9, None, None).counts;
        reference[1].block_misses += 1;
        let r = round(&rows, machine, 9, Some(&reference), None);
        assert_eq!(r.failed, 1);
    }
}
