//! Scenario specification: what traffic to serve, on which backend,
//! under which admission/batching policy — parsed fail-loud from
//! `HBP_SERVE_*` environment variables (plus the shared `HBP_*` knobs
//! via [`hbp_core::Config`], the single place those are parsed).

use hbp_core::sched::native::NativeConfig;
use hbp_core::{has_native_kernel, lookup, Backend, Policy};

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Open loop: requests arrive at pre-scheduled instants regardless
    /// of completions (arrival rate is the independent variable; queue
    /// growth and rejections are the signal).
    Open,
    /// Closed loop: each client keeps one request outstanding and
    /// submits the next one a think-time after the previous completes
    /// (concurrency is the independent variable).
    Closed,
}

impl LoadMode {
    /// Parse an `HBP_SERVE_MODE` value (`open` / `closed`; unset or
    /// empty means closed).
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("closed") => Ok(LoadMode::Closed),
            Some("open") => Ok(LoadMode::Open),
            Some(other) => Err(format!(
                "HBP_SERVE_MODE must be `open` or `closed`, got {other:?}"
            )),
        }
    }

    /// The mode's report label.
    pub fn label(&self) -> &'static str {
        match self {
            LoadMode::Open => "open",
            LoadMode::Closed => "closed",
        }
    }
}

/// One slice of the request mix: a registry algorithm, its relative
/// weight, and the problem sizes it is requested at.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Registry row name — resolved through [`hbp_core::lookup`] when
    /// the scenario is validated, so a renamed row breaks the scenario
    /// loudly instead of silently dropping traffic.
    pub algo: String,
    /// Relative weight (≥ 1) in the request mix.
    pub weight: u64,
    /// Problem sizes requests of this algorithm are drawn from
    /// (uniformly).
    pub sizes: Vec<usize>,
}

/// A complete load scenario. Same spec + same seed ⇒ same request
/// schedule; on the sim backend the whole scenario report is
/// byte-identical across runs.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed: drives the request schedule (mix picks, sizes,
    /// think/inter-arrival times) and the kernels' input seeds.
    pub seed: u64,
    /// Total requests the generator emits.
    pub requests: usize,
    /// Concurrent clients (closed loop: one outstanding request each;
    /// open loop: requests are attributed round-robin).
    pub clients: usize,
    /// Open vs closed loop (see [`LoadMode`]).
    pub mode: LoadMode,
    /// Admission-queue bound: a submission finding the queue at this
    /// depth is *rejected and counted* — never silently dropped.
    pub queue_cap: usize,
    /// Max requests batched into one shared kernel launch (1 disables
    /// batching).
    pub batch_max: usize,
    /// Only requests with `n <= small_n` are batched (large kernels
    /// launch alone).
    pub small_n: usize,
    /// Mean think time (closed) / inter-arrival time (open) in
    /// nanoseconds — log-normally distributed with σ = 0.5. 0 means no
    /// pacing.
    pub think_mean_ns: u64,
    /// The request mix (must be non-empty; weights ≥ 1).
    pub mix: Vec<MixEntry>,
    /// Which backend serves the scenario.
    pub backend: Backend,
    /// Scheduling discipline (both backends).
    pub policy: Policy,
    /// Pool workers (native) / simulated cores (sim).
    pub workers: usize,
    /// Closed-loop clients honor `RetryAfter` pacing hints: a full
    /// queue *defers* the submission (sleep the hinted duration, retry
    /// up to [`MAX_DEFERRALS`] times) instead of hard-rejecting it
    /// outright. Open-loop arrivals are pre-scheduled and never pace.
    pub pacing: bool,
    /// Native pool tuning (steal batching, domains, autoscale band, …).
    /// `workers`/`seed`/`policy` are taken from the spec's own fields —
    /// see [`ScenarioSpec::native_config`].
    pub native: NativeConfig,
}

/// How many times a pacing client retries a deferred submission before
/// recording a hard rejection.
pub const MAX_DEFERRALS: u32 = 3;

/// The default request mix: the paper's sort/scan/LR workloads plus CC
/// on the sim backend. CC has no `par_*` kernel yet, so the native
/// default substitutes FFT to keep a 4-algorithm mix (an explicit
/// `HBP_SERVE_MIX` naming CC on native fails loudly in
/// [`ScenarioSpec::validate`]).
pub fn default_mix(backend: Backend) -> Vec<MixEntry> {
    let fourth = match backend {
        Backend::Sim => "CC",
        Backend::Native => "FFT",
    };
    vec![
        MixEntry {
            algo: "Sort (SPMS)".into(),
            weight: 2,
            sizes: vec![512, 2048],
        },
        MixEntry {
            algo: "Scans (M-Sum)".into(),
            weight: 3,
            sizes: vec![1024, 8192],
        },
        MixEntry {
            algo: "LR".into(),
            weight: 2,
            sizes: vec![512, 2048],
        },
        MixEntry {
            algo: fourth.into(),
            weight: 1,
            sizes: vec![256, 1024],
        },
    ]
}

/// Parse an `HBP_SERVE_MIX` value:
/// `ALGO:WEIGHT:SIZE|SIZE,...` — e.g.
/// `Sort (SPMS):2:512|2048,LR:1:1024`. Every malformed field is an
/// error naming the variable and the offending entry.
pub fn parse_mix(value: &str) -> Result<Vec<MixEntry>, String> {
    let mut mix = Vec::new();
    for entry in value.split(',') {
        let mut parts = entry.splitn(3, ':');
        let (algo, weight, sizes) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(w), Some(s)) => (a.trim(), w.trim(), s),
            _ => {
                return Err(format!(
                    "HBP_SERVE_MIX entry must be ALGO:WEIGHT:SIZE|SIZE, got {entry:?}"
                ))
            }
        };
        let weight: u64 = weight.parse().ok().filter(|&w| w >= 1).ok_or_else(|| {
            format!("HBP_SERVE_MIX weight must be a positive integer in {entry:?}")
        })?;
        let sizes: Vec<usize> = sizes
            .split('|')
            .map(|s| {
                s.trim().parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("HBP_SERVE_MIX size must be a positive integer in {entry:?}")
                })
            })
            .collect::<Result<_, String>>()?;
        if sizes.is_empty() {
            return Err(format!("HBP_SERVE_MIX entry {entry:?} has no sizes"));
        }
        mix.push(MixEntry {
            algo: algo.to_string(),
            weight,
            sizes,
        });
    }
    if mix.is_empty() {
        return Err("HBP_SERVE_MIX must name at least one entry".into());
    }
    Ok(mix)
}

fn env_num<T: std::str::FromStr + Copy>(
    var: &str,
    default: T,
    min_ok: fn(&T) -> bool,
) -> Result<T, String> {
    match std::env::var(var) {
        Err(_) => Ok(default),
        Ok(s) if s.is_empty() => Ok(default),
        Ok(s) => s
            .parse::<T>()
            .ok()
            .filter(min_ok)
            .ok_or_else(|| format!("{var} must be a valid non-negative number, got {s:?}")),
    }
}

impl ScenarioSpec {
    /// Build the spec from the environment (`HBP_SERVE_*` plus the
    /// shared `HBP_BACKEND` / `HBP_POLICY` / `HBP_WORKERS` knobs),
    /// falling back to a small deterministic default scenario. Every
    /// invalid value is an error naming the variable — no silent
    /// defaults on typos. The result is already
    /// [validated](ScenarioSpec::validate).
    pub fn try_from_env() -> Result<Self, String> {
        let cfg = hbp_core::Config::try_from_env()?;
        let mix = match std::env::var("HBP_SERVE_MIX") {
            Ok(s) if !s.is_empty() => parse_mix(&s)?,
            _ => default_mix(cfg.backend),
        };
        let seed = env_num("HBP_SERVE_SEED", 42u64, |_| true)?;
        let pacing = match std::env::var("HBP_SERVE_PACING").ok().as_deref() {
            None | Some("") | Some("0") | Some("off") | Some("false") => false,
            Some("1") | Some("on") | Some("true") | Some("yes") => true,
            Some(other) => {
                return Err(format!(
                    "HBP_SERVE_PACING must be a boolean switch (1/on/true or 0/off/false), \
                     got {other:?}"
                ))
            }
        };
        let spec = Self {
            seed,
            requests: env_num("HBP_SERVE_REQUESTS", 120usize, |&r| r >= 1)?,
            clients: env_num("HBP_SERVE_CLIENTS", 4usize, |&c| c >= 1)?,
            mode: LoadMode::parse(std::env::var("HBP_SERVE_MODE").ok().as_deref())?,
            queue_cap: env_num("HBP_SERVE_QUEUE_CAP", 64usize, |&c| c >= 1)?,
            batch_max: env_num("HBP_SERVE_BATCH", 8usize, |&b| b >= 1)?,
            small_n: env_num("HBP_SERVE_SMALL_N", 4096usize, |_| true)?,
            think_mean_ns: env_num("HBP_SERVE_THINK_NS", 20_000u64, |_| true)?,
            mix,
            backend: cfg.backend,
            policy: cfg.policy,
            workers: cfg.workers,
            pacing,
            native: cfg.native_config(seed),
        };
        spec.validate();
        Ok(spec)
    }

    /// [`ScenarioSpec::try_from_env`], panicking with the parse error.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolve every mix row through [`hbp_core::lookup`] (panics
    /// listing the known rows on a miss — a renamed registry row breaks
    /// the scenario loudly) and, on the native backend, require a
    /// native kernel for each (panics listing what native serves).
    /// Canonicalizes the mix's algorithm names in place.
    pub fn validate(&self) {
        for entry in &self.mix {
            let spec = lookup(&entry.algo);
            if self.backend == Backend::Native && !has_native_kernel(spec.name) {
                let served: Vec<&str> = crate::NATIVE_SERVED
                    .iter()
                    .copied()
                    .filter(|a| has_native_kernel(a))
                    .collect();
                panic!(
                    "mix row {:?} has no native kernel; the native backend serves {served:?}",
                    spec.name
                );
            }
        }
        assert!(!self.mix.is_empty(), "scenario mix is empty");
    }

    /// The scenario's canonical mix: every algo name resolved through
    /// the registry (exact, fail-loud).
    pub fn canonical_mix(&self) -> Vec<MixEntry> {
        self.mix
            .iter()
            .map(|e| MixEntry {
                algo: lookup(&e.algo).name.to_string(),
                weight: e.weight,
                sizes: e.sizes.clone(),
            })
            .collect()
    }

    /// The native pool's config for this scenario: the spec's
    /// `workers`/`seed`/`policy` over the tuning knobs carried in
    /// [`ScenarioSpec::native`], so there is exactly one source of truth
    /// for the fields both hold.
    pub fn native_config(&self) -> NativeConfig {
        NativeConfig {
            workers: self.workers,
            seed: self.seed,
            policy: self.policy,
            ..self.native
        }
    }

    /// Report label for the policy (`pws`, `rws:SEED`, `bsp:LEVELS`).
    pub fn policy_label(&self) -> String {
        match self.policy {
            Policy::Pws => "pws".to_string(),
            Policy::Rws { seed } => format!("rws:{seed}"),
            Policy::Bsp { prefix_levels } => format!("bsp:{prefix_levels}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parse_roundtrips_and_rejects_garbage() {
        let mix = parse_mix("Sort (SPMS):2:512|2048,LR:1:1024").unwrap();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].algo, "Sort (SPMS)");
        assert_eq!(mix[0].weight, 2);
        assert_eq!(mix[0].sizes, vec![512, 2048]);
        assert_eq!(mix[1].algo, "LR");
        for bad in ["LR", "LR:0:512", "LR:1:", "LR:1:abc", ""] {
            let err = parse_mix(bad).expect_err(bad);
            assert!(
                err.contains("HBP_SERVE_MIX"),
                "error names the variable: {err}"
            );
        }
    }

    #[test]
    fn default_mix_resolves_on_its_backend() {
        for backend in [Backend::Sim, Backend::Native] {
            for entry in default_mix(backend) {
                let spec = lookup(&entry.algo);
                if backend == Backend::Native {
                    assert!(
                        has_native_kernel(spec.name),
                        "{} must have a native kernel",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn validate_fails_loudly_on_renamed_rows() {
        let spec = ScenarioSpec {
            seed: 1,
            requests: 1,
            clients: 1,
            mode: LoadMode::Closed,
            queue_cap: 1,
            batch_max: 1,
            small_n: 0,
            think_mean_ns: 0,
            mix: vec![MixEntry {
                algo: "Sort (renamed away)".into(),
                weight: 1,
                sizes: vec![64],
            }],
            backend: Backend::Sim,
            policy: Policy::Pws,
            workers: 2,
            pacing: false,
            native: NativeConfig::default(),
        };
        let err = std::panic::catch_unwind(|| spec.validate()).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("String payload");
        assert!(msg.contains("no registry row named"), "{msg}");
    }
}
