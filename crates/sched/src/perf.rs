//! Hardware counter sampling for the native backend: per-worker
//! `perf_event` file descriptors read at task boundaries, so the trace
//! carries *measured* miss deltas in the same [`MissDelta`](hbp_trace::EventKind::MissDelta) vocabulary the
//! simulator fills with *predicted* ones — closing the model-vs-hardware
//! loop the paper's bounds invite.
//!
//! ## Channels
//!
//! Each worker opens three self-monitoring counters (pid 0, any CPU,
//! userspace only) and maps their deltas onto the `MissDelta` fields:
//!
//! | `MissDelta` field | sim meaning              | native counter       |
//! |-------------------|--------------------------|----------------------|
//! | `heap_block`      | heap block misses        | `cache-misses`       |
//! | `stack_block`     | stack block misses       | `LLC-load-misses`    |
//! | `stack_plain`     | plain stack misses       | `context-switches`   |
//!
//! The mapping is deliberate: the paper's block misses are coherence
//! traffic (≈ last-level cache misses), and context switches are the
//! native proxy for "my worker lost the cache through no fault of the
//! algorithm" — `trace_diff` reports totals per side, it never pretends
//! the units match across backends.
//!
//! ## Sources and degradation
//!
//! [`CounterSource::open`] realizes the [`CounterMode`] (env knob
//! `HBP_COUNTERS`):
//!
//! * `perf` — raw `perf_event_open(2)` (no external crates; the syscall is
//!   declared directly). Denied (`perf_event_paranoid`, seccomp, non-Linux,
//!   or the `perf` cargo feature disabled) ⇒ [`CounterSource::Unavailable`].
//! * `stub` — a deterministic per-worker fake: read `k` on worker `w`
//!   returns channel values proportional to `k·(w+1)`, so task-boundary
//!   deltas are reproducible across runs — the CI parity source.
//! * `auto` (default) — try `perf`, fall back to `stub`; the realized kind
//!   is recorded for reporting ([`realized`]).
//! * `off` — no sampling, no events.
//!
//! Sampling happens only while a trace sink is attached; with tracing off
//! this module costs nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// How the native pool sources task-boundary counter deltas
/// (`HBP_COUNTERS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterMode {
    /// Try the real perf fds, fall back to the deterministic stub — the
    /// default, so traced native runs always carry `MissDelta`s.
    #[default]
    Auto,
    /// Real perf fds only; sampling silently degrades to
    /// [`CounterSource::Unavailable`] (no events) when denied.
    Perf,
    /// The deterministic fake counter (CI parity runs).
    Stub,
    /// No counter sampling at all.
    Off,
}

impl CounterMode {
    /// Parse an `HBP_COUNTERS` value: `None` (unset), the empty string or
    /// `auto` → [`CounterMode::Auto`]; `perf` → [`CounterMode::Perf`];
    /// `stub` → [`CounterMode::Stub`]; `off`/`0` → [`CounterMode::Off`].
    /// Anything else is an error naming the variable and the accepted
    /// values.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("auto") => Ok(CounterMode::Auto),
            Some("perf") => Ok(CounterMode::Perf),
            Some("stub") => Ok(CounterMode::Stub),
            Some("off") | Some("0") => Ok(CounterMode::Off),
            Some(other) => Err(format!(
                "HBP_COUNTERS must be `auto`, `perf`, `stub`, or `off`/`0`, got {other:?}"
            )),
        }
    }
}

/// Cumulative values of the three sampled channels, in the `MissDelta`
/// field order: `[heap_block, stack_block, stack_plain]`.
pub type CounterValues = [u64; 3];

/// One worker's realized counter source (see the module docs).
pub enum CounterSource {
    /// Live `perf_event` fds (closed on drop).
    #[cfg(feature = "perf")]
    Perf(PerfCounters),
    /// The deterministic fake.
    Stub(StubCounter),
    /// Sampling is off or was denied: [`CounterSource::read`] yields
    /// `None` and no `MissDelta` events are emitted.
    Unavailable,
}

impl CounterSource {
    /// Realize `mode` for worker `worker` **on the calling thread** (the
    /// perf fds monitor the opening thread, so workers must open their
    /// own).
    pub fn open(mode: CounterMode, worker: usize) -> CounterSource {
        let src = match mode {
            CounterMode::Off => CounterSource::Unavailable,
            CounterMode::Stub => CounterSource::Stub(StubCounter::new(worker)),
            CounterMode::Perf => Self::try_perf().unwrap_or(CounterSource::Unavailable),
            CounterMode::Auto => {
                Self::try_perf().unwrap_or_else(|| CounterSource::Stub(StubCounter::new(worker)))
            }
        };
        note_realized(&src);
        src
    }

    /// The real-fds source, when the cargo feature is on and the kernel
    /// grants the fds.
    fn try_perf() -> Option<CounterSource> {
        #[cfg(feature = "perf")]
        {
            PerfCounters::open().map(CounterSource::Perf)
        }
        #[cfg(not(feature = "perf"))]
        {
            None
        }
    }

    /// Current cumulative channel values, or `None` when unavailable.
    pub fn read(&mut self) -> Option<CounterValues> {
        match self {
            #[cfg(feature = "perf")]
            CounterSource::Perf(p) => p.read(),
            CounterSource::Stub(s) => Some(s.read()),
            CounterSource::Unavailable => None,
        }
    }

    /// Short name of the realized source (`perf` / `stub` / `none`).
    pub fn kind(&self) -> &'static str {
        match self {
            #[cfg(feature = "perf")]
            CounterSource::Perf(_) => "perf",
            CounterSource::Stub(_) => "stub",
            CounterSource::Unavailable => "none",
        }
    }
}

/// The deterministic fake counter: monotone, reproducible, per-worker.
///
/// Read `k` (1-based) on worker `w` returns
/// `[k·(w+1)·17, k·(w+1)·5, k·(w+1)·2]`, so the delta over any
/// read-bracketed window is `(reads in window)·(w+1)·{17,5,2}` —
/// independent of wall-clock and scheduling, which is what lets CI assert
/// exact `MissDelta` totals.
pub struct StubCounter {
    weight: u64,
    reads: u64,
}

impl StubCounter {
    pub fn new(worker: usize) -> Self {
        StubCounter {
            weight: worker as u64 + 1,
            reads: 0,
        }
    }

    pub fn read(&mut self) -> CounterValues {
        self.reads += 1;
        let k = self.reads * self.weight;
        [k * 17, k * 5, k * 2]
    }
}

/// Per-channel deltas a stub-sourced task window produces on worker `w`
/// (each task is bracketed by exactly two reads, so the window spans one
/// read step at begin and one at end — the delta is one step). Exposed so
/// parity tests can compute expected totals without re-deriving the stub.
pub fn stub_task_delta(worker: usize) -> CounterValues {
    let w = worker as u64 + 1;
    [w * 17, w * 5, w * 2]
}

// ---------------------------------------------------------------------
// Realized-source note (for reporting: "counter source: perf").
// ---------------------------------------------------------------------

const SRC_UNKNOWN: u8 = 0;
const SRC_PERF: u8 = 1;
const SRC_STUB: u8 = 2;
const SRC_NONE: u8 = 3;

static REALIZED: AtomicU8 = AtomicU8::new(SRC_UNKNOWN);

fn note_realized(src: &CounterSource) {
    let v = match src.kind() {
        "perf" => SRC_PERF,
        "stub" => SRC_STUB,
        _ => SRC_NONE,
    };
    // First realization wins; workers of one pool all realize the same
    // mode, and mixed-pool processes still get a truthful first answer.
    let _ = REALIZED.compare_exchange(SRC_UNKNOWN, v, Relaxed, Relaxed);
}

/// What the first opened source in this process realized as, if any —
/// `"perf"`, `"stub"` or `"none"` (reporting only; not a per-worker fact).
pub fn realized() -> Option<&'static str> {
    match REALIZED.load(Relaxed) {
        SRC_PERF => Some("perf"),
        SRC_STUB => Some("stub"),
        SRC_NONE => Some("none"),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Thread-local sampling entry point used by the worker runtime.
// ---------------------------------------------------------------------

thread_local! {
    /// The calling worker thread's realized source, opened on first use
    /// (pool worker threads persist across jobs, so this is one open per
    /// thread per process).
    static SOURCE: RefCell<Option<CounterSource>> = const { RefCell::new(None) };
}

/// Read the calling worker's cumulative counters, opening the source on
/// first call. `None` when `mode` is off or the source is unavailable.
pub(crate) fn sample(mode: CounterMode, worker: usize) -> Option<CounterValues> {
    if matches!(mode, CounterMode::Off) {
        return None;
    }
    SOURCE.with_borrow_mut(|s| {
        s.get_or_insert_with(|| CounterSource::open(mode, worker))
            .read()
    })
}

// ---------------------------------------------------------------------
// Raw perf_event_open plumbing (Linux, feature "perf").
// ---------------------------------------------------------------------

/// Live `perf_event` fds for the three channels, in `MissDelta` order.
#[cfg(feature = "perf")]
pub struct PerfCounters {
    fds: [i32; 3],
}

#[cfg(all(feature = "perf", target_os = "linux"))]
mod sys {
    //! The `perf_event_open(2)` ABI, declared by hand: the container has
    //! no crates.io access, and the std-linked libc already exports
    //! `syscall`/`read`/`close`.

    /// `struct perf_event_attr`, ABI version ≥ 3 prefix — the kernel
    /// accepts any size it knows, and 120 (`PERF_ATTR_SIZE_VER6`) is
    /// ancient enough for every kernel this repo can meet.
    #[repr(C)]
    #[derive(Default)]
    pub struct PerfEventAttr {
        pub type_: u32,
        pub size: u32,
        pub config: u64,
        pub sample_period_or_freq: u64,
        pub sample_type: u64,
        pub read_format: u64,
        /// Bitfield word: bit 0 `disabled`, bit 5 `exclude_kernel`,
        /// bit 6 `exclude_hv`.
        pub flags: u64,
        pub wakeup: u32,
        pub bp_type: u32,
        pub config1: u64,
        pub config2: u64,
        pub branch_sample_type: u64,
        pub sample_regs_user: u64,
        pub sample_stack_user: u32,
        pub clockid: i32,
        pub sample_regs_intr: u64,
        pub aux_watermark: u32,
        pub sample_max_stack: u16,
        pub reserved_2: u16,
        pub aux_sample_size: u32,
        pub reserved_3: u32,
    }

    pub const ATTR_SIZE: u32 = std::mem::size_of::<PerfEventAttr>() as u32;

    pub const EXCLUDE_KERNEL: u64 = 1 << 5;
    pub const EXCLUDE_HV: u64 = 1 << 6;

    pub const PERF_TYPE_HARDWARE: u32 = 0;
    pub const PERF_TYPE_SOFTWARE: u32 = 1;
    pub const PERF_TYPE_HW_CACHE: u32 = 3;
    pub const PERF_COUNT_HW_CACHE_MISSES: u64 = 3;
    pub const PERF_COUNT_SW_CONTEXT_SWITCHES: u64 = 3;
    /// LL cache | read op | miss result. The read-op field is literally
    /// zero in the kernel ABI encoding; spelled out so all three fields
    /// of the cache-event id stay visible.
    #[allow(clippy::identity_op)]
    pub const LLC_LOAD_MISSES: u64 = 2 | (0 << 8) | (1 << 16);

    pub const PERF_FLAG_FD_CLOEXEC: u64 = 8;

    #[cfg(target_arch = "x86_64")]
    pub const SYS_PERF_EVENT_OPEN: i64 = 298;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_PERF_EVENT_OPEN: i64 = 241;

    extern "C" {
        pub fn syscall(num: i64, ...) -> i64;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    /// Open one self-monitoring counter on the calling thread, enabled
    /// from the start, counting userspace only. `None` on any refusal
    /// (EPERM/EACCES from `perf_event_paranoid`, ENOENT for an event the
    /// PMU lacks, ENOSYS under seccomp).
    pub fn open_counter(type_: u32, config: u64) -> Option<i32> {
        let attr = PerfEventAttr {
            type_,
            size: ATTR_SIZE,
            config,
            flags: EXCLUDE_KERNEL | EXCLUDE_HV,
            ..Default::default()
        };
        // pid 0 (this thread), cpu -1 (any), no group, close-on-exec.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                0i32,
                -1i32,
                -1i32,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        (fd >= 0).then_some(fd as i32)
    }
}

#[cfg(feature = "perf")]
impl PerfCounters {
    /// Open the three channels on the calling thread; all-or-nothing
    /// (a host that allows software but not hardware events falls back
    /// to the stub under `auto` rather than reporting lopsided zeros).
    pub fn open() -> Option<PerfCounters> {
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let specs = [
                (sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_CACHE_MISSES),
                (sys::PERF_TYPE_HW_CACHE, sys::LLC_LOAD_MISSES),
                (sys::PERF_TYPE_SOFTWARE, sys::PERF_COUNT_SW_CONTEXT_SWITCHES),
            ];
            let mut fds = [-1i32; 3];
            for (i, &(t, c)) in specs.iter().enumerate() {
                match sys::open_counter(t, c) {
                    Some(fd) => fds[i] = fd,
                    None => {
                        for &fd in &fds[..i] {
                            unsafe { sys::close(fd) };
                        }
                        return None;
                    }
                }
            }
            Some(PerfCounters { fds })
        }
    }

    pub fn read(&mut self) -> Option<CounterValues> {
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let mut out = [0u64; 3];
            for (i, &fd) in self.fds.iter().enumerate() {
                let mut buf = [0u8; 8];
                let n = unsafe { sys::read(fd, buf.as_mut_ptr(), 8) };
                if n != 8 {
                    return None;
                }
                out[i] = u64::from_ne_bytes(buf);
            }
            Some(out)
        }
    }
}

#[cfg(all(feature = "perf", target_os = "linux"))]
impl Drop for PerfCounters {
    fn drop(&mut self) {
        for &fd in &self.fds {
            if fd >= 0 {
                unsafe { sys::close(fd) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_accepts_the_documented_values() {
        for v in [None, Some(""), Some("auto")] {
            assert_eq!(CounterMode::parse(v), Ok(CounterMode::Auto), "{v:?}");
        }
        assert_eq!(CounterMode::parse(Some("perf")), Ok(CounterMode::Perf));
        assert_eq!(CounterMode::parse(Some("stub")), Ok(CounterMode::Stub));
        for v in [Some("off"), Some("0")] {
            assert_eq!(CounterMode::parse(v), Ok(CounterMode::Off), "{v:?}");
        }
        let err = CounterMode::parse(Some("nope")).unwrap_err();
        assert!(
            err.contains("HBP_COUNTERS") && err.contains("nope"),
            "{err}"
        );
    }

    #[test]
    fn stub_is_deterministic_and_monotone() {
        let mut a = StubCounter::new(2);
        let mut b = StubCounter::new(2);
        let (r1, r2) = (a.read(), a.read());
        assert_eq!(b.read(), r1);
        assert_eq!(b.read(), r2);
        for ch in 0..3 {
            assert!(r2[ch] > r1[ch]);
            assert_eq!(r2[ch] - r1[ch], stub_task_delta(2)[ch]);
        }
    }

    #[test]
    fn stub_source_reads_and_reports_kind() {
        let mut s = CounterSource::open(CounterMode::Stub, 0);
        assert_eq!(s.kind(), "stub");
        let v = s.read().expect("stub always reads");
        assert_eq!(v, [17, 5, 2]);
    }

    #[test]
    fn off_mode_is_unavailable() {
        let mut s = CounterSource::open(CounterMode::Off, 0);
        assert_eq!(s.kind(), "none");
        assert!(s.read().is_none());
    }

    #[test]
    fn auto_mode_always_yields_a_live_source() {
        // Whether or not the host grants perf fds, auto must land on a
        // source that reads (perf or the stub fallback) — the graceful
        // degradation contract.
        let mut s = CounterSource::open(CounterMode::Auto, 1);
        assert!(s.read().is_some(), "auto realized {:?}", s.kind());
        assert!(matches!(s.kind(), "perf" | "stub"));
    }

    #[cfg(feature = "perf")]
    #[test]
    fn perf_mode_reads_monotone_or_degrades() {
        let mut s = CounterSource::open(CounterMode::Perf, 0);
        match s.kind() {
            "perf" => {
                let a = s.read().expect("open fds read");
                // Burn some cycles so the cycle-adjacent channels move.
                let mut x = 0u64;
                for i in 0..100_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
                let b = s.read().expect("open fds read");
                for ch in 0..3 {
                    assert!(b[ch] >= a[ch], "channel {ch} went backwards");
                }
            }
            "none" => assert!(s.read().is_none()),
            other => panic!("perf mode realized {other:?}"),
        }
    }
}
