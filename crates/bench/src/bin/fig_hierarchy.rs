//! **F10 — §5.2 cache hierarchy**: the paper's `d = 2` configuration —
//! private L1s under one L2 of `M₂ > p·M₁` words — in two flavors:
//!
//! * **partitioned** L2 (the paper's "simple but non-optimal" scheme):
//!   each core owns an `M₂/p` segment that behaves like a private second
//!   level (and is invalidated by coherence like one);
//! * **shared** L2: one copy; coherence-invalidated L1 lines refill from
//!   L2 at the cheap cost, so *block misses get cheaper* even though their
//!   count is unchanged.
//!
//! ```text
//! cargo run --release -p hbp-bench --bin fig_hierarchy
//! ```
//!
//! With `HBP_BACKEND=native` the bin instead runs the same algorithms
//! on the real pool and prints the *measured* hierarchy: the steal-
//! locality table from the metrics registry under the configured
//! `HBP_DOMAINS` / `HBP_CROSS_DEPTH` — the native twin of the simulated
//! figure, and the probe CI's `domain-matrix` job drives.

use hbp_core::prelude::*;

/// `HBP_BACKEND=native`: run each algorithm once on the native pool and
/// print how many committed steals stayed inside a cache domain.
fn native_locality() {
    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    let ex = NativeExecutor::from_config(&Config::from_env(), 0);
    let (map, two_level) = ex.pool.domains.resolve(ex.pool.workers);
    println!(
        "F10 (native): steal locality under domains={} two_level={} workers={} policy={}\n",
        map.domains(),
        two_level,
        ex.pool.workers,
        hbp_core::sched::policy::native_facet(ex.pool.policy).name(),
    );
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "algorithm", "domains", "steals", "local", "cross", "local-share"
    );
    hbp_bench::rule(70);
    for name in ["Scans (PS)", "MT", "FFT", "Sort (SPMS)"] {
        let spec = lookup(name);
        let n = match spec.size {
            SizeKind::Linear => 1 << 16,
            SizeKind::MatrixSide => 256,
        };
        m.reset();
        ex.execute(&ExecJob::new(name, n, 42))
            .unwrap_or_else(|| panic!("{name} has a native kernel"));
        let snap = m.snapshot();
        let (committed, _) = snap.total_steals();
        let (local, cross) = snap.total_steal_locality();
        println!(
            "{:<20} {:>8} {:>8} {:>8} {:>8} {:>12}",
            spec.name,
            map.domains(),
            committed,
            local,
            cross,
            if committed == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * local as f64 / committed as f64)
            }
        );
    }
    println!(
        "\ntwo-level stealing (HBP_DOMAINS=<k>) probes domain-local victims\n\
         first and admits cross-domain steals only above the fork-depth\n\
         floor (HBP_CROSS_DEPTH); tag:<k> classifies the same locality\n\
         while stealing flat — the A/B control."
    );
}

fn main() {
    if Config::from_env().backend == Backend::Native {
        native_locality();
        return;
    }
    println!("F10: flat vs partitioned-L2 vs shared-L2 (p=8, M1=2^8, M2=2^15, B=32)\n");
    println!(
        "{:<20} {:<12} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "algorithm", "machine", "makespan", "L1 miss", "L2 hit", "blk miss", "speedup"
    );
    hbp_bench::rule(84);
    for name in ["Scans (PS)", "MT", "FFT", "Sort (SPMS)"] {
        let spec = lookup(name);
        let n = match spec.size {
            SizeKind::Linear => 1 << 13,
            SizeKind::MatrixSide => 64,
        };
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        let flat = MachineConfig::new(8, 1 << 8, 32);
        let machines = [
            ("flat (no L2)", flat),
            ("partitioned L2", flat.with_l2(1 << 15, true)),
            ("shared L2", flat.with_l2(1 << 15, false)),
        ];
        let base = run(&comp, flat, Policy::Pws).makespan;
        for (mname, m) in machines {
            let r = run(&comp, m, Policy::Pws);
            let t = r.machine.total();
            println!(
                "{:<20} {:<12} {:>10} {:>9} {:>9} {:>9} {:>8.2}",
                spec.name,
                mname,
                r.makespan,
                t.misses(),
                t.l2_hits,
                r.block_misses(),
                base as f64 / r.makespan as f64
            );
        }
        println!();
    }
    println!(
        "shared L2 ≥ partitioned ≥ flat in speedup; the shared L2 also\n\
         absorbs coherence refills (block-miss *cost* drops even though the\n\
         invalidation *count* is protocol-determined)."
    );
}
