//! [`Config`]: the one typed construction path for executors, pools and
//! sessions — and the **only** place the `HBP_*` environment variables
//! are parsed.
//!
//! Every knob the runtime exposes is a field here, settable three ways:
//!
//! 1. **builder** — `Config::new().workers(8).policy(Policy::Pws)…`;
//! 2. **environment** — [`Config::from_env`] /
//!    [`Config::try_from_env`], which read the full `HBP_*` family in
//!    one pass and report *every* invalid variable in one error (no
//!    first-wins panics: a CI job with two typos sees both);
//! 3. **struct literal** over [`Config::default`].
//!
//! Downstream layers never read the environment themselves: the pure
//! `parse` functions stay on their owning types (`Policy::parse`,
//! `StealBatch::parse`, …), but the `std::env::var` calls live in this
//! module alone — a grep-enforced property (`HBP_*` reads outside this
//! file fail CI), so adding a knob forces the loud-error aggregation and
//! the README table to stay in sync.
//!
//! | Variable | Field | Default |
//! |---|---|---|
//! | `HBP_BACKEND` | [`Config::backend`] | `sim` |
//! | `HBP_POLICY` | [`Config::policy`] | `pws` |
//! | `HBP_WORKERS` | [`Config::workers`] | hardware threads (min 4) |
//! | `HBP_STEAL_BATCH` | [`Config::steal_batch`] | `policy` |
//! | `HBP_DOMAINS` | [`Config::domains`] | `auto` |
//! | `HBP_CROSS_DEPTH` | [`Config::cross_depth`] | `3` |
//! | `HBP_COUNTERS` | [`Config::counters`] | `auto` |
//! | `HBP_AUTOSCALE` | [`Config::autoscale`] | off (fixed pool) |
//! | `HBP_TRACE` | [`Config::trace`] | off |
//! | `HBP_TRACE_BUF` | [`Config::trace_buf`] | 2^20 events/worker |
//! | `HBP_TRACE_STRICT` | [`Config::trace_strict`] | off |
//! | `HBP_METRICS` | [`Config::metrics`] | off |
//! | `HBP_METRICS_INTERVAL` | [`Config::metrics_interval`] | off (no sampler) |

use std::sync::Arc;
use std::time::Duration;

use hbp_sched::native::{NativeConfig, StealBatch};
use hbp_sched::topology::parse_cross_depth;
use hbp_sched::{CounterMode, DomainSpec, Policy};
use hbp_trace::{ClockDomain, TraceSink};

use crate::executor::{parse_workers, Backend, Executor, NativeExecutor, SimExecutor};

/// Parse an `HBP_AUTOSCALE` value: `None` (unset), the empty string or
/// `off` → no autoscaling; `min..max` (both positive, `min <= max`) →
/// the elastic band. Anything else is an error naming the variable, the
/// offending value, and the accepted forms.
pub fn parse_autoscale(value: Option<&str>) -> Result<Option<(usize, usize)>, String> {
    let err = |other: &str| {
        Err(format!(
            "HBP_AUTOSCALE must be `off` or `min..max` with 1 <= min <= max, got {other:?}"
        ))
    };
    match value {
        None | Some("") | Some("off") | Some("0") => Ok(None),
        Some(other) => {
            let Some((lo, hi)) = other.split_once("..") else {
                return err(other);
            };
            match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(min), Ok(max)) if min >= 1 && min <= max => Ok(Some((min, max))),
                _ => err(other),
            }
        }
    }
}

/// Parse a boolean-ish `HBP_*` switch: unset/empty/`0`/`off`/`false` →
/// false; `1`/`on`/`true`/`yes` → true; anything else errors, naming
/// `var`.
fn parse_switch(var: &str, value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("") | Some("0") | Some("off") | Some("false") => Ok(false),
        Some("1") | Some("on") | Some("true") | Some("yes") => Ok(true),
        Some(other) => Err(format!(
            "{var} must be `1`/`on`/`true` or `0`/`off`/`false`, got {other:?}"
        )),
    }
}

/// Parse an `HBP_TRACE_BUF` value: unset/empty → [`hbp_trace::DEFAULT_CAPACITY`];
/// a positive integer → that many events per worker ring.
fn parse_trace_buf(value: Option<&str>) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(hbp_trace::DEFAULT_CAPACITY),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("HBP_TRACE_BUF must be a positive integer, got {s:?}")),
    }
}

/// Parse an `HBP_METRICS_INTERVAL` value (milliseconds): unset, the
/// empty string or `off` → no background sampler; a positive integer →
/// a sampler at that period. The sampler paces on wall-clock time (its
/// sample count is nondeterministic), which is why it is opt-in.
fn parse_metrics_interval(value: Option<&str>) -> Result<Option<Duration>, String> {
    match value {
        None | Some("") | Some("off") => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms >= 1)
            .map(|ms| Some(Duration::from_millis(ms)))
            .ok_or_else(|| {
                format!("HBP_METRICS_INTERVAL must be a positive integer (milliseconds), got {s:?}")
            }),
    }
}

/// The full runtime configuration (see the module docs for the env
/// table). Construct with [`Config::new`] and the builder methods, or
/// [`Config::from_env`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Execution backend (`HBP_BACKEND`).
    pub backend: Backend,
    /// Stealing discipline, shared by both backends (`HBP_POLICY`).
    pub policy: Policy,
    /// Native worker threads / trace-sink width (`HBP_WORKERS`).
    pub workers: usize,
    /// Steal-batching mode (`HBP_STEAL_BATCH`).
    pub steal_batch: StealBatch,
    /// Cache-domain sharding (`HBP_DOMAINS`).
    pub domains: DomainSpec,
    /// Fork-depth floor for cross-domain steals (`HBP_CROSS_DEPTH`).
    pub cross_depth: u32,
    /// Task-boundary counter sampling for traced jobs (`HBP_COUNTERS`).
    pub counters: CounterMode,
    /// Elastic worker band (`HBP_AUTOSCALE=min..max`; `None` = fixed
    /// pool). See `NativeConfig::autoscale` for the semantics.
    pub autoscale: Option<(usize, usize)>,
    /// Structured event tracing on/off (`HBP_TRACE`).
    pub trace: bool,
    /// Per-worker trace ring capacity, events (`HBP_TRACE_BUF`).
    pub trace_buf: usize,
    /// Fail loudly on truncated traces instead of degrading
    /// (`HBP_TRACE_STRICT`; consulted by the trace-report tooling).
    pub trace_strict: bool,
    /// Metrics registry publishing on/off (`HBP_METRICS`).
    pub metrics: bool,
    /// Background sampler period (`HBP_METRICS_INTERVAL`, milliseconds;
    /// `None` = no sampler — it paces on wall-clock time, so runs that
    /// need deterministic output leave it off).
    pub metrics_interval: Option<Duration>,
}

impl Default for Config {
    fn default() -> Self {
        let native = NativeConfig::default();
        Self {
            backend: Backend::Sim,
            policy: Policy::Pws,
            workers: native.workers,
            steal_batch: native.batch,
            domains: native.domains,
            cross_depth: native.cross_depth,
            counters: native.counters,
            autoscale: None,
            trace: false,
            trace_buf: hbp_trace::DEFAULT_CAPACITY,
            trace_strict: false,
            metrics: false,
            metrics_interval: None,
        }
    }
}

impl Config {
    /// The defaults: sim backend, PWS, one worker per hardware thread
    /// (min 4), no tracing, no metrics, no autoscale.
    pub fn new() -> Self {
        Self::default()
    }

    // --- builder methods ---------------------------------------------------

    /// Select the execution backend.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Select the stealing discipline.
    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    /// Set the native worker count (≥ 1).
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Set the steal-batching mode.
    pub fn steal_batch(mut self, b: StealBatch) -> Self {
        self.steal_batch = b;
        self
    }

    /// Set the cache-domain sharding.
    pub fn domains(mut self, d: DomainSpec) -> Self {
        self.domains = d;
        self
    }

    /// Set the cross-domain steal depth floor.
    pub fn cross_depth(mut self, d: u32) -> Self {
        self.cross_depth = d;
        self
    }

    /// Set the counter-sampling mode.
    pub fn counters(mut self, c: CounterMode) -> Self {
        self.counters = c;
        self
    }

    /// Enable elastic autoscaling inside `[min, max]` workers.
    pub fn autoscale(mut self, min: usize, max: usize) -> Self {
        self.autoscale = Some((min, max));
        self
    }

    /// Turn structured event tracing on or off.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set the per-worker trace ring capacity (events).
    pub fn trace_buf(mut self, events: usize) -> Self {
        self.trace_buf = events;
        self
    }

    /// Fail loudly on truncated traces.
    pub fn trace_strict(mut self, on: bool) -> Self {
        self.trace_strict = on;
        self
    }

    /// Turn metrics publishing on or off (effective via
    /// [`Config::apply`]).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Run a background metrics sampler at this period
    /// ([`hbp_metrics::DEFAULT_INTERVAL`] is the conventional choice).
    pub fn metrics_interval(mut self, every: Duration) -> Self {
        self.metrics_interval = Some(every);
        self
    }

    // --- environment -------------------------------------------------------

    /// Read the whole `HBP_*` family from the environment. Unset
    /// variables keep their defaults; **every** invalid variable is
    /// reported in the single returned error (one line each), so a job
    /// with several typos fixes them all in one round trip.
    pub fn try_from_env() -> Result<Self, String> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`Config::try_from_env`] against an explicit variable lookup
    /// (tests feed a map; the env wrapper feeds `std::env::var`).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut errors: Vec<String> = Vec::new();
        macro_rules! set {
            ($field:expr, $parsed:expr) => {
                match $parsed {
                    Ok(v) => $field = v,
                    Err(e) => errors.push(e),
                }
            };
        }
        set!(cfg.backend, Backend::parse(get("HBP_BACKEND").as_deref()));
        set!(cfg.policy, Policy::parse(get("HBP_POLICY").as_deref()));
        set!(cfg.workers, parse_workers(get("HBP_WORKERS").as_deref()));
        if let Some(v) = get("HBP_DEQUE") {
            errors.push(format!(
                "HBP_DEQUE is no longer supported (got {v:?}): the Chase-Lev deque is the only deque"
            ));
        }
        set!(
            cfg.steal_batch,
            StealBatch::parse(get("HBP_STEAL_BATCH").as_deref())
        );
        set!(
            cfg.domains,
            DomainSpec::parse(get("HBP_DOMAINS").as_deref())
        );
        set!(
            cfg.cross_depth,
            parse_cross_depth(get("HBP_CROSS_DEPTH").as_deref())
        );
        set!(
            cfg.counters,
            CounterMode::parse(get("HBP_COUNTERS").as_deref())
        );
        set!(
            cfg.autoscale,
            parse_autoscale(get("HBP_AUTOSCALE").as_deref())
        );
        set!(
            cfg.trace,
            parse_switch("HBP_TRACE", get("HBP_TRACE").as_deref())
        );
        set!(
            cfg.trace_buf,
            parse_trace_buf(get("HBP_TRACE_BUF").as_deref())
        );
        set!(
            cfg.trace_strict,
            parse_switch("HBP_TRACE_STRICT", get("HBP_TRACE_STRICT").as_deref())
        );
        set!(
            cfg.metrics,
            parse_switch("HBP_METRICS", get("HBP_METRICS").as_deref())
        );
        set!(
            cfg.metrics_interval,
            parse_metrics_interval(get("HBP_METRICS_INTERVAL").as_deref())
        );
        if errors.is_empty() {
            Ok(cfg)
        } else {
            Err(format!(
                "invalid HBP_* environment ({} problem{}):\n  - {}",
                errors.len(),
                if errors.len() == 1 { "" } else { "s" },
                errors.join("\n  - ")
            ))
        }
    }

    /// [`Config::try_from_env`], panicking with the aggregated error
    /// (typos must not silently fall back in CI).
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    // --- consumers ---------------------------------------------------------

    /// Push the configuration's process-global effects: metrics registry
    /// enablement (the registry itself never reads the environment).
    /// Idempotent; returns `self` for chaining.
    pub fn apply(self) -> Self {
        hbp_metrics::global().set_enabled(self.metrics);
        self
    }

    /// The native-pool slice of this configuration, with `seed` feeding
    /// the victim-selection RNG streams.
    pub fn native_config(&self, seed: u64) -> NativeConfig {
        NativeConfig {
            workers: self.workers,
            seed,
            policy: self.policy,
            batch: self.steal_batch,
            counters: self.counters,
            domains: self.domains,
            cross_depth: self.cross_depth,
            autoscale: self.autoscale,
        }
    }

    /// The configured [`Executor`]: [`SimExecutor`] on `machine` for
    /// [`Backend::Sim`], a [`NativeExecutor`] for [`Backend::Native`]
    /// (an RWS policy seed additionally feeds the workers' RNG streams;
    /// `machine` is a simulator-only knob).
    pub fn executor(&self, machine: hbp_machine::MachineConfig) -> Box<dyn Executor> {
        match self.backend {
            Backend::Sim => Box::new(SimExecutor {
                machine,
                policy: self.policy,
            }),
            Backend::Native => {
                let seed = match self.policy {
                    Policy::Rws { seed } => seed,
                    Policy::Pws | Policy::Bsp { .. } => 0,
                };
                Box::new(NativeExecutor::from_config(self, seed))
            }
        }
    }

    /// A trace sink sized for `workers` at the configured ring capacity
    /// — `None` when tracing is off, so call sites read
    /// `cfg.sink(…)`/`is_some` instead of consulting the env.
    pub fn sink(&self, workers: usize, clock: ClockDomain) -> Option<Arc<TraceSink>> {
        self.trace
            .then(|| Arc::new(TraceSink::with_capacity(workers, clock, self.trace_buf)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_defaults_hold() {
        let cfg = Config::new()
            .backend(Backend::Native)
            .policy(Policy::Rws { seed: 7 })
            .workers(3)
            .autoscale(1, 4)
            .metrics(true);
        assert_eq!(cfg.backend, Backend::Native);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.autoscale, Some((1, 4)));
        assert!(cfg.metrics);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.cross_depth, Config::default().cross_depth);
        assert!(!cfg.trace);
        let native = cfg.native_config(5);
        assert_eq!(native.workers, 3);
        assert_eq!(native.seed, 5);
        assert_eq!(native.autoscale, Some((1, 4)));
    }

    #[test]
    fn autoscale_parse_accepts_bands_and_rejects_garbage() {
        assert_eq!(parse_autoscale(None), Ok(None));
        assert_eq!(parse_autoscale(Some("")), Ok(None));
        assert_eq!(parse_autoscale(Some("off")), Ok(None));
        assert_eq!(parse_autoscale(Some("1..4")), Ok(Some((1, 4))));
        assert_eq!(parse_autoscale(Some("2..2")), Ok(Some((2, 2))));
        for bad in ["4..1", "0..3", "1-4", "many", "..", "3.."] {
            let err = parse_autoscale(Some(bad)).expect_err(bad);
            assert!(err.contains("HBP_AUTOSCALE"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn from_lookup_reports_every_invalid_var_at_once() {
        let vars = [
            ("HBP_BACKEND", "quantum"),
            ("HBP_POLICY", "pws"),
            ("HBP_WORKERS", "zero"),
            ("HBP_AUTOSCALE", "4..1"),
            ("HBP_METRICS", "1"),
        ];
        let err = Config::from_lookup(|v| {
            vars.iter()
                .find(|(k, _)| *k == v)
                .map(|(_, val)| val.to_string())
        })
        .expect_err("three invalid vars");
        for var in ["HBP_BACKEND", "HBP_WORKERS", "HBP_AUTOSCALE"] {
            assert!(err.contains(var), "error must name {var}: {err}");
        }
        for val in ["quantum", "zero", "4..1"] {
            assert!(err.contains(val), "error must echo {val}: {err}");
        }
        assert!(err.contains("3 problems"), "{err}");
        // Valid vars still parse when the invalid ones are fixed.
        let ok = Config::from_lookup(|v| match v {
            "HBP_POLICY" => Some("rws:9".into()),
            "HBP_AUTOSCALE" => Some("1..4".into()),
            "HBP_METRICS" => Some("1".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(ok.policy, Policy::Rws { seed: 9 });
        assert_eq!(ok.autoscale, Some((1, 4)));
        assert!(ok.metrics);
    }

    #[test]
    fn removed_settings_are_reported_not_ignored() {
        let vars = [
            ("HBP_DEQUE", "mutex"),
            ("HBP_STEAL_BATCH", "4"),
            ("HBP_WORKERS", "zero"),
        ];
        let err = Config::from_lookup(|v| {
            vars.iter()
                .find(|(k, _)| *k == v)
                .map(|(_, val)| val.to_string())
        })
        .expect_err("three invalid vars");
        for var in ["HBP_DEQUE", "HBP_STEAL_BATCH", "HBP_WORKERS"] {
            assert!(err.contains(var), "error must name {var}: {err}");
        }
        assert_eq!(err.matches("no longer supported").count(), 2, "{err}");
        assert!(err.contains("3 problems"), "{err}");
    }

    #[test]
    fn switch_and_size_parsers_reject_garbage() {
        assert_eq!(parse_switch("HBP_TRACE", Some("on")), Ok(true));
        assert_eq!(parse_switch("HBP_TRACE", None), Ok(false));
        assert!(parse_switch("HBP_TRACE", Some("maybe"))
            .unwrap_err()
            .contains("HBP_TRACE"));
        assert_eq!(parse_trace_buf(None), Ok(hbp_trace::DEFAULT_CAPACITY));
        assert_eq!(parse_trace_buf(Some("64")), Ok(64));
        assert!(parse_trace_buf(Some("0")).is_err());
        assert_eq!(
            parse_metrics_interval(Some("5")),
            Ok(Some(Duration::from_millis(5)))
        );
        assert_eq!(parse_metrics_interval(None), Ok(None));
        assert_eq!(parse_metrics_interval(Some("off")), Ok(None));
        assert!(parse_metrics_interval(Some("fast")).is_err());
    }
}
