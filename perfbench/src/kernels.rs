//! The `kernels` workload: one submitter thread and one persistent
//! `NativePool` in a closed loop. Each round runs the eight native
//! kernels back to back, one `submit` → `wait` each, and checks every
//! output against a sequential oracle outside the timed region.
//!
//! The traced run interleaves four kinds of round — untraced, traced
//! (a `submit_traced` sink per job plus the metrics registry), a
//! one-worker pool, and a batch of empty jobs — so every per-layer
//! ratio compares rounds measured under the same conditions.

use std::sync::Arc;
use std::time::Instant;

use hbp_core::algos::{gen, layout::morton, oracle, par};
use hbp_core::model::Cx;
use hbp_core::sched::native::NativePool;
use hbp_core::trace::{summarize, ClockDomain, Histogram, TraceSink, TraceSummary};
use hbp_core::{Config, ExecReport};

use crate::record::{Record, Spans};
use crate::stats::{median, percentile, sorted};

/// The eight native kernels, in the order a round runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Spms,
    Merge,
    Lr,
    Fft,
    Strassen,
    Mt,
    Ps,
    Msum,
}

const KERNELS: [Kernel; 8] = [
    Kernel::Spms,
    Kernel::Merge,
    Kernel::Lr,
    Kernel::Fft,
    Kernel::Strassen,
    Kernel::Mt,
    Kernel::Ps,
    Kernel::Msum,
];

impl Kernel {
    /// The name used in metric keys (`algos.<name>.ms`).
    fn name(self) -> &'static str {
        match self {
            Kernel::Spms => "spms",
            Kernel::Merge => "merge",
            Kernel::Lr => "lr",
            Kernel::Fft => "fft",
            Kernel::Strassen => "strassen",
            Kernel::Mt => "mt",
            Kernel::Ps => "ps",
            Kernel::Msum => "msum",
        }
    }
}

/// Problem sizes of one round.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// (key, index) pairs sorted by SPMS and by the merge sort.
    sort: usize,
    /// List length for list ranking.
    list: usize,
    /// FFT length (a power of two).
    fft: usize,
    /// Strassen matrix side (a power of two).
    strassen: usize,
    /// Transposed matrix side (a power of two).
    mt: usize,
    /// Prefix-sum and sum length.
    scan: usize,
}

/// The benchmark's sizes: about 135 ms per round at 2 workers.
const BENCH: Sizes = Sizes {
    sort: 1 << 18,
    list: 1 << 18,
    fft: 1 << 16,
    strassen: 256,
    mt: 1024,
    scan: 1 << 20,
};

/// FFT bins checked against a direct DFT sum (a full O(n²) DFT at 2^16
/// would cost more than the whole benchmark).
const FFT_BINS: usize = 16;

/// Empty jobs per traced cycle, for the pool dispatch metrics.
const EMPTY_JOBS: usize = 200;

/// How many times the workload is set up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Eight-byte words per 64-byte cache line: the `B` of the steal ×
/// block-transfer bound the traced run prints.
const LINE_WORDS: usize = 8;

/// Untraced rounds a run measures even when the time is up, so the round
/// tail always has [`crate::stats::TAIL_BEYOND`] rounds beyond it and
/// sits above the median.
const MIN_ROUNDS: usize = 2 * crate::stats::TAIL_BEYOND + 2;

/// Row-major `n×n` matrix to the bit-interleaved layout the `_bi`
/// kernels take.
fn to_bi(rm: &[f64], n: usize) -> Vec<f64> {
    let mut bi = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            bi[morton(r as u64, c as u64) as usize] = rm[r * n + c];
        }
    }
    bi
}

/// SplitMix64 step: derives the sampled FFT bins from the seed.
fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every kernel's input, generated from the seed.
struct Inputs {
    sizes: Sizes,
    pairs: Vec<(u64, u64)>,
    list: Vec<usize>,
    signal: Vec<Cx>,
    a: Vec<f64>,
    b: Vec<f64>,
    m: Vec<f64>,
    words: Vec<u64>,
}

impl Inputs {
    fn new(sizes: Sizes, seed: u64) -> Self {
        let pairs = gen::random_u64s(sizes.sort, u64::MAX / 2, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64))
            .collect();
        let signal = gen::random_u64s(2 * sizes.fft, 1 << 20, seed + 2)
            .chunks(2)
            .map(|w| Cx::new(w[0] as f64 / 1e6, w[1] as f64 / 1e6))
            .collect();
        let s = sizes.strassen;
        Self {
            sizes,
            pairs,
            list: gen::random_list(sizes.list, seed + 1),
            signal,
            a: to_bi(&gen::random_matrix(s, seed + 3), s),
            b: to_bi(&gen::random_matrix(s, seed + 4), s),
            m: to_bi(&gen::random_matrix(sizes.mt, seed + 5), sizes.mt),
            words: gen::random_u64s(sizes.scan, 1 << 30, seed + 6),
        }
    }
}

/// The oracle's answer for every kernel, computed once at set-up.
struct Expected {
    sorted: Vec<(u64, u64)>,
    ranks: Vec<u64>,
    /// `(bin, X[bin])` by direct summation, and the absolute tolerance.
    bins: Vec<(usize, Cx)>,
    fft_tol: f64,
    product: Vec<f64>,
    strassen_tol: f64,
    transposed: Vec<f64>,
    prefix: Vec<u64>,
    sum: u64,
}

/// `X[k] = Σ_j x[j]·e^{-2πi·jk/n}`, reducing `j·k` mod `n` first so the
/// twiddle angle stays exact.
fn dft_bin(x: &[Cx], k: usize) -> Cx {
    let n = x.len();
    x.iter().enumerate().fold(Cx::default(), |acc, (j, &v)| {
        let theta = -std::f64::consts::TAU * ((j * k) % n) as f64 / n as f64;
        acc + v * Cx::cis(theta)
    })
}

impl Expected {
    fn new(inp: &Inputs, seed: u64) -> Self {
        let sz = inp.sizes;
        let s = sz.strassen;
        let unbi = |bi: &[f64], n: usize| {
            let mut rm = vec![0.0; n * n];
            for r in 0..n {
                for c in 0..n {
                    rm[r * n + c] = bi[morton(r as u64, c as u64) as usize];
                }
            }
            rm
        };
        let product = to_bi(&oracle::matmul_rm(&unbi(&inp.a, s), &unbi(&inp.b, s), s), s);
        let n = sz.mt;
        let mut transposed = vec![0.0; n * n];
        for r in 0..n as u64 {
            for c in 0..n as u64 {
                transposed[morton(r, c) as usize] = inp.m[morton(c, r) as usize];
            }
        }
        let bins = (0..FFT_BINS as u64)
            .map(|i| {
                let k = (splitmix(seed ^ (i << 32)) % sz.fft as u64) as usize;
                (k, dft_bin(&inp.signal, k))
            })
            .collect();
        let mass: f64 = inp.signal.iter().map(|v| v.abs()).sum();
        Self {
            sorted: oracle::sort_pairs(&inp.pairs),
            ranks: oracle::list_rank(&inp.list),
            bins,
            fft_tol: 1e-9 * mass,
            product,
            strassen_tol: 1e-9 * s as f64,
            transposed,
            prefix: oracle::prefix_sums(&inp.words),
            sum: oracle::sum(&inp.words),
        }
    }
}

/// What a kernel job hands back for checking.
enum Output {
    Pairs(Vec<(u64, u64)>),
    Ranks(Vec<u64>),
    Signal(Vec<Cx>),
    Matrix(Vec<f64>),
    Words(Vec<u64>),
    Sum(u64),
}

/// A kernel launch, ready to submit: its input is already staged (the
/// in-place kernels get their own copy), so the job does kernel work
/// only.
type Job = Box<dyn FnOnce() -> Output + Send>;

/// Stage kernel `k`'s input and return the job that runs it.
fn job(k: Kernel, inp: &Arc<Inputs>) -> Job {
    let i = Arc::clone(inp);
    match k {
        Kernel::Spms => {
            let mut d = inp.pairs.clone();
            Box::new(move || {
                par::par_spms(&mut d);
                Output::Pairs(d)
            })
        }
        Kernel::Merge => {
            let mut d = inp.pairs.clone();
            Box::new(move || {
                par::par_mergesort(&mut d);
                Output::Pairs(d)
            })
        }
        Kernel::Lr => Box::new(move || Output::Ranks(par::par_list_rank(&i.list))),
        Kernel::Fft => {
            let mut x = inp.signal.clone();
            Box::new(move || {
                par::par_fft(&mut x);
                Output::Signal(x)
            })
        }
        Kernel::Strassen => {
            Box::new(move || Output::Matrix(par::par_strassen_bi(&i.a, &i.b, i.sizes.strassen)))
        }
        Kernel::Mt => {
            let mut m = inp.m.clone();
            let n = inp.sizes.mt;
            Box::new(move || {
                par::par_transpose_bi(&mut m, n);
                Output::Matrix(m)
            })
        }
        Kernel::Ps => Box::new(move || Output::Words(par::par_prefix(&i.words))),
        Kernel::Msum => Box::new(move || Output::Sum(par::par_sum(&i.words))),
    }
}

/// Does `out` match the oracle's answer for kernel `k`?
fn check(k: Kernel, out: &Output, exp: &Expected) -> bool {
    let near = |got: &[f64], want: &[f64], tol: f64| {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= tol)
    };
    match (k, out) {
        (Kernel::Spms | Kernel::Merge, Output::Pairs(v)) => *v == exp.sorted,
        (Kernel::Lr, Output::Ranks(r)) => *r == exp.ranks,
        (Kernel::Fft, Output::Signal(x)) => exp.bins.iter().all(|&(b, want)| {
            x.get(b)
                .is_some_and(|&got| (got - want).abs() <= exp.fft_tol)
        }),
        (Kernel::Strassen, Output::Matrix(c)) => near(c, &exp.product, exp.strassen_tol),
        (Kernel::Mt, Output::Matrix(m)) => *m == exp.transposed,
        (Kernel::Ps, Output::Words(p)) => *p == exp.prefix,
        (Kernel::Msum, Output::Sum(s)) => *s == exp.sum,
        _ => false,
    }
}

/// One finished pool job: its value (`None` if it panicked), report,
/// and the four instants the pool layers are measured between.
struct Launch<R> {
    value: Option<R>,
    report: ExecReport,
    submit: Instant,
    root_start: Instant,
    root_end: Instant,
    done: Instant,
}

impl<R> Launch<R> {
    fn ms(&self) -> f64 {
        (self.done - self.submit).as_secs_f64() * 1e3
    }
}

/// Submit `f` (with an optional trace sink) and wait for it. The root
/// closure stamps its own first and last statement, so submit → root
/// start and root end → wait return can be told apart.
fn launch<R, F>(pool: &NativePool, sink: Option<Arc<TraceSink>>, f: F) -> Launch<R>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let submit = Instant::now();
    let handle = pool
        .submit_traced(sink, move || {
            let start = Instant::now();
            let r = f();
            (r, start, Instant::now())
        })
        .expect("an open pool accepts every submission");
    let o = handle.outcome();
    let done = Instant::now();
    let (value, root_start, root_end) = match o.result {
        Ok((r, s, e)) => (Some(r), s, e),
        Err(_) => (None, submit, done),
    };
    Launch {
        value,
        report: o.report,
        submit,
        root_start,
        root_end,
        done,
    }
}

/// Everything measured about one kernel launch in a round.
struct Measured {
    ms: f64,
    report: ExecReport,
    ok: bool,
    /// The job's trace summary, in traced rounds.
    summary: Option<TraceSummary>,
}

/// The benchmark's own spans for one launch: the job as a whole, the
/// pool's start and finish, the kernel's root, and the oracle check.
fn add_spans<R>(spans: &mut Spans, id: u64, what: &str, l: &Launch<R>, check: (Instant, Instant)) {
    spans.add(id, "job", what, l.submit, l.done);
    spans.add(id, "pool.start", what, l.submit, l.root_start);
    spans.add(id, "kernel", what, l.root_start, l.root_end);
    spans.add(id, "pool.finish", what, l.root_end, l.done);
    spans.add(id, "check", what, check.0, check.1);
}

/// Run the eight kernels once on `pool`. `traced` attaches a fresh trace
/// sink per job (the summaries are returned with the measurements);
/// `spans` records the benchmark's own spans, numbering jobs from `id`.
fn round(
    pool: &NativePool,
    inp: &Arc<Inputs>,
    exp: &Expected,
    traced: bool,
    mut spans: Option<(&mut Spans, &mut u64)>,
) -> Vec<Measured> {
    KERNELS
        .iter()
        .map(|&k| {
            let f = job(k, inp);
            let sink =
                traced.then(|| Arc::new(TraceSink::new(pool.workers(), ClockDomain::WallNs)));
            let l = launch(pool, sink.clone(), f);
            let c0 = Instant::now();
            let ok = l.value.as_ref().is_some_and(|o| check(k, o, exp));
            let c1 = Instant::now();
            if let Some((sp, id)) = spans.as_mut() {
                add_spans(sp, **id, k.name(), &l, (c0, c1));
                **id += 1;
            }
            Measured {
                ms: l.ms(),
                report: l.report,
                ok,
                summary: sink.map(|s| summarize(&s.collect())),
            }
        })
        .collect()
}

fn failures(r: &[Measured]) -> u64 {
    r.iter().filter(|m| !m.ok).count() as u64
}

fn round_ms(r: &[Measured]) -> f64 {
    r.iter().map(|m| m.ms).sum()
}

/// The persistent state a round needs.
struct Setup {
    pool: NativePool,
    inp: Arc<Inputs>,
    exp: Expected,
}

/// Spawn the pool, generate inputs and oracle answers, run one warm-up
/// round. Returns the state and the warm-up's failure count.
fn set_up(workers: usize, seed: u64) -> (Setup, u64) {
    let pool = NativePool::new(Config::new().workers(workers).native_config(seed));
    let inp = Arc::new(Inputs::new(BENCH, seed));
    let exp = Expected::new(&inp, seed);
    let warm = round(&pool, &inp, &exp, false, None);
    (Setup { pool, inp, exp }, failures(&warm))
}

/// Set up [`SETUP_REPS`] times, keep the last, report the median time.
fn set_up_timed(workers: usize, seed: u64, rec: &mut Record) -> Setup {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let (s, failed) = set_up(workers, seed);
        times.push(t.elapsed().as_secs_f64());
        rec.count(KERNELS.len() as u64, failed);
        kept = Some(s);
    }
    rec.metric("setup_s", median(&times), "s");
    kept.expect("set up at least once")
}

/// The round tail: the highest percentile with ten rounds beyond it.
/// Returns the value and notes which percentile of how many rounds it is.
fn round_tail(rec: &mut Record, sorted_ms: &[f64]) -> f64 {
    let (pct, v) = crate::stats::tail(sorted_ms).expect("MIN_ROUNDS leave a tail above the median");
    rec.note(format!(
        "round tail {v:.1} ms is p{pct:.1} of {} rounds ({} beyond it)",
        sorted_ms.len(),
        crate::stats::TAIL_BEYOND
    ));
    v
}

/// The untraced run: rounds until the time is up; set-up time and the
/// median round. The tail is only noted: it follows the host's stalls
/// too closely to bound (see the README), so `round_ms.tail` comes from
/// the traced run.
pub fn run(seed: u64, seconds: f64, workers: usize, rec: &mut Record) {
    let s = set_up_timed(workers, seed, rec);
    let mut rounds = Vec::new();
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || rounds.len() < MIN_ROUNDS {
        let r = round(&s.pool, &s.inp, &s.exp, false, None);
        rec.count(KERNELS.len() as u64, failures(&r));
        rounds.push(round_ms(&r));
    }
    let s = sorted(rounds);
    rec.metric("op_cost_ms", percentile(&s, 50.0), "ms");
    round_tail(rec, &s);
}

/// Linear interpolation of percentile `q` inside a log₂ histogram's
/// buckets (bucket `i` holds `[2^(i-1), 2^i)`).
fn histogram_percentile(h: &Histogram, q: f64) -> Option<f64> {
    let total = h.total();
    if total == 0 {
        return None;
    }
    let target = q / 100.0 * total as f64;
    let mut below = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        if c > 0 && below + c as f64 >= target {
            let (lo, hi) = h.bounds(i);
            let frac = (target - below) / c as f64;
            return Some(lo as f64 + frac * (hi - lo) as f64);
        }
        below += c as f64;
    }
    None
}

/// Per-kernel sample columns gathered across rounds.
struct Columns {
    ms: Vec<Vec<f64>>,
    busy: Vec<Vec<f64>>,
}

impl Columns {
    fn new() -> Self {
        Self {
            ms: vec![Vec::new(); KERNELS.len()],
            busy: vec![Vec::new(); KERNELS.len()],
        }
    }

    fn push(&mut self, r: &[Measured]) {
        for (i, m) in r.iter().enumerate() {
            self.ms[i].push(m.ms);
            self.busy[i].push(m.report.busy.iter().sum::<u64>() as f64);
        }
    }
}

/// Runtime counters summed over the untraced `nproc` jobs.
#[derive(Default)]
struct RuntimeSums {
    steals: u64,
    attempts: u64,
    stolen: u64,
    idle_ns: u64,
    capacity_ns: u64,
}

impl RuntimeSums {
    fn add(&mut self, r: &ExecReport) {
        self.steals += r.steals;
        self.attempts += r.steal_attempts;
        self.stolen += r.stolen_tasks;
        self.idle_ns += r.idle.iter().sum::<u64>();
        self.capacity_ns += r.p as u64 * r.makespan;
    }
}

/// The traced run: interleaved untraced / traced / one-worker / empty
/// rounds until the time is up; per-layer metrics, the steal-count
/// cross-check, and the benchmark's spans.
pub fn run_traced(seed: u64, seconds: f64, workers: usize, rec: &mut Record, spans: &mut Spans) {
    let (s, failed) = set_up(workers, seed);
    rec.count(KERNELS.len() as u64, failed);
    let (one, failed) = set_up(1, seed);
    rec.count(KERNELS.len() as u64, failed);
    let registry = hbp_core::metrics::global();

    let mut plain = Columns::new();
    let mut single = Columns::new();
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut rt = RuntimeSums::default();
    let mut steals_per_round = Vec::new();
    let mut util_min = Vec::new();
    let mut latency = Histogram::default();
    let (mut start_us, mut finish_us, mut rt_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut id = 0u64;

    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || plain_rounds.len() < MIN_ROUNDS {
        // Untraced round: the same launches as the untraced run.
        let r = round(&s.pool, &s.inp, &s.exp, false, Some((&mut *spans, &mut id)));
        rec.count(KERNELS.len() as u64, failures(&r));
        plain.push(&r);
        plain_rounds.push(round_ms(&r));
        for m in &r {
            rt.add(&m.report);
        }
        steals_per_round.push(r.iter().map(|m| m.report.steals as f64).sum());

        // Traced round: a trace sink per job and the metrics registry on.
        registry.set_enabled(true);
        let before = registry.snapshot().total_steals().0;
        let r = round(&s.pool, &s.inp, &s.exp, true, Some((&mut *spans, &mut id)));
        let committed = registry.snapshot().total_steals().0 - before;
        registry.set_enabled(false);
        rec.count(KERNELS.len() as u64, failures(&r));
        traced_rounds.push(round_ms(&r));
        let (mut from_reports, mut from_traces) = (0u64, 0u64);
        let mut busy = vec![0u64; workers];
        let mut makespan = 0u64;
        for m in &r {
            let summary = m
                .summary
                .as_ref()
                .expect("traced rounds summarize every job");
            from_reports += m.report.steals;
            from_traces += summary.steals;
            if summary.dropped > 0 {
                mismatches += 1;
                rec.note(format!("trace ring dropped {} events", summary.dropped));
            }
            for (w, u) in summary.workers_util.iter().enumerate() {
                busy[w] += u.busy;
            }
            makespan += summary.makespan;
            for (i, &c) in summary.steal_latency.counts.iter().enumerate() {
                if latency.counts.len() <= i {
                    latency.counts.resize(i + 1, 0);
                }
                latency.counts[i] += c;
            }
        }
        if from_reports != from_traces || from_reports != committed {
            mismatches += 1;
            rec.note(format!(
                "steal counts disagree: ExecReport {from_reports}, trace {from_traces}, registry {committed}"
            ));
        }
        let util = busy.iter().map(|&b| b as f64 / makespan.max(1) as f64);
        util_min.push(util.fold(f64::INFINITY, f64::min));

        // One-worker round: the busy-time baseline for inflation.
        let r = round(&one.pool, &one.inp, &one.exp, false, None);
        rec.count(KERNELS.len() as u64, failures(&r));
        single.push(&r);

        // Empty jobs: what the pool itself costs per launch.
        for _ in 0..EMPTY_JOBS {
            let l = launch(&s.pool, None, || ());
            start_us.push((l.root_start - l.submit).as_secs_f64() * 1e6);
            finish_us.push((l.done - l.root_end).as_secs_f64() * 1e6);
            rt_us.push((l.done - l.submit).as_secs_f64() * 1e6);
        }
        rec.count(EMPTY_JOBS as u64, 0);
    }
    rec.count(0, mismatches);

    for (i, k) in KERNELS.iter().enumerate() {
        let name = k.name();
        rec.metric(format!("algos.{name}.ms"), median(&plain.ms[i]), "ms");
        let inflation = median(&plain.busy[i]) / median(&single.busy[i]);
        rec.metric(format!("algos.{name}.inflation"), inflation, "ratio");
    }
    let sort_ratio = median(&plain.ms[0]) / median(&plain.ms[1]);
    rec.metric("algos.spms_over_merge", sort_ratio, "ratio");
    let steals = median(&steals_per_round);
    rec.metric("runtime.steals", steals, "count");
    rec.note(format!(
        "steal x block-transfer bound (RWS with false sharing, B = {LINE_WORDS} words per 64-byte line): \
         {steals:.0} steals per round x {LINE_WORDS} = {:.0} block transfers; no hardware miss count to set beside it (counter source: stub unless perf)",
        steals * LINE_WORDS as f64
    ));
    rec.metric(
        "runtime.steal_success",
        rt.steals as f64 / rt.attempts.max(1) as f64,
        "ratio",
    );
    rec.metric(
        "runtime.tasks_per_steal",
        rt.stolen as f64 / rt.steals.max(1) as f64,
        "ratio",
    );
    rec.metric(
        "runtime.idle_frac",
        rt.idle_ns as f64 / rt.capacity_ns.max(1) as f64,
        "ratio",
    );
    let lat = histogram_percentile(&latency, 50.0).unwrap_or(0.0) / 1e3;
    rec.metric("runtime.steal_latency_us.p50", lat, "us");
    rec.metric("runtime.util_min", median(&util_min), "ratio");
    rec.metric("pool.start_us.p50", median(&start_us), "us");
    rec.metric("pool.finish_us.p50", median(&finish_us), "us");
    let rt_sorted = sorted(rt_us);
    rec.metric("pool.empty_rt_us.p50", percentile(&rt_sorted, 50.0), "us");
    rec.metric("pool.empty_rt_us.p90", percentile(&rt_sorted, 90.0), "us");
    let tail = round_tail(rec, &sorted(plain_rounds.clone()));
    rec.metric("round_ms.tail", tail, "ms");
    let overhead = median(&traced_rounds) / median(&plain_rounds) - 1.0;
    rec.metric("trace.overhead_frac.kernels", overhead, "ratio");
    rec.note(format!(
        "kernels traced run: {} cycles; steals cross-checked against hbp_trace::summarize and the metrics registry on every traced round",
        plain_rounds.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        sort: 1 << 12,
        list: 1 << 12,
        fft: 1 << 10,
        strassen: 32,
        mt: 64,
        scan: 1 << 13,
    };

    fn outputs(seed: u64) -> (Expected, Vec<Output>) {
        let pool = NativePool::new(Config::new().workers(2).native_config(seed));
        let inp = Arc::new(Inputs::new(SMALL, seed));
        let exp = Expected::new(&inp, seed);
        let outs = KERNELS
            .iter()
            .map(|&k| {
                let l = launch(&pool, None, job(k, &inp));
                l.value.expect("kernel does not panic")
            })
            .collect();
        (exp, outs)
    }

    #[test]
    fn every_kernel_passes_its_oracle() {
        let (exp, outs) = outputs(7);
        for (&k, out) in KERNELS.iter().zip(&outs) {
            assert!(check(k, out, &exp), "{} failed its check", k.name());
        }
    }

    #[test]
    fn a_corrupted_output_is_reported_as_a_failure() {
        let (exp, mut outs) = outputs(11);
        for (&k, out) in KERNELS.iter().zip(outs.iter_mut()) {
            match out {
                Output::Pairs(v) => v.swap(0, 1),
                Output::Ranks(v) | Output::Words(v) => v[3] += 1,
                Output::Signal(x) => x[exp.bins[0].0].re += 1.0,
                Output::Matrix(m) => m[5] += 1.0,
                Output::Sum(s) => *s += 1,
            }
            assert!(
                !check(k, out, &exp),
                "corrupted {} passed its check",
                k.name()
            );
        }
    }

    #[test]
    fn a_mismatched_output_kind_fails() {
        let (exp, _) = outputs(3);
        assert!(!check(Kernel::Msum, &Output::Words(vec![]), &exp));
    }

    #[test]
    fn histogram_percentile_interpolates_inside_a_bucket() {
        let mut h = Histogram::default();
        for v in [5, 6, 7, 100] {
            h.record(v); // 5..7 land in [4, 8), 100 in [64, 128)
        }
        // Rank 2 of 4 sits two thirds into the [4, 8) bucket's 3 values.
        let p50 = histogram_percentile(&h, 50.0).expect("non-empty");
        assert!((p50 - (4.0 + 4.0 * 2.0 / 3.0)).abs() < 1e-9);
        assert_eq!(histogram_percentile(&Histogram::default(), 50.0), None);
    }
}
