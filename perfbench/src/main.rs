//! The repository's benchmark. One command runs one workload and prints
//! its metrics, by name and unit, as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every form of
//! tracing off; every workload reports all of them. `--trace 1` is a
//! separate run that measures the per-layer metrics and writes the
//! benchmark's own spans to `perfbench/out/`. Each layer is measured on
//! the workload that exercises it, so a traced run reports every layer:
//! the named workload's traced pass runs for `--seconds`, the other two
//! follow as short companion passes at their minimum length. See
//! `perfbench/README.md` for the workloads and every metric's
//! definition.

mod kernels;
mod record;
mod serve;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use hbp_core::sched::perf::CounterSource;
use hbp_core::sched::CounterMode;

use record::{Record, Spans};

const WORKLOADS: [&str; 3] = ["kernels", "serve-open", "sim-replay"];

const USAGE: &str =
    "usage: perfbench --workload <kernels|serve-open|sim-replay> [--seed N] [--seconds S] [--trace 0|1]";

/// The command line, checked.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The pool is pinned at one worker per CPU, never oversubscribed.
    let workers = host_cpus;
    let counters = CounterSource::open(CounterMode::Auto, 0).kind();
    println!(
        "{{\"host\": {{\"host_cpus\": {host_cpus}, \"pool_workers\": {workers}, \
         \"counters\": \"{counters}\", \"toolchain\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut rec = Record::default();
    let mut spans = Spans::new();
    let secs = args.seconds as f64;
    if args.trace {
        // The named workload first and for the whole time; then the
        // companion passes, which measure until their minimum counts.
        let mut passes = vec![args.workload.as_str()];
        passes.extend(WORKLOADS.iter().filter(|&&w| w != args.workload));
        for (i, pass) in passes.into_iter().enumerate() {
            let secs = if i == 0 { secs } else { 0.0 };
            spans.begin_pass();
            match pass {
                "kernels" => kernels::run_traced(args.seed, secs, workers, &mut rec, &mut spans),
                "serve-open" => serve::run_traced(args.seed, secs, workers, &mut rec, &mut spans),
                "sim-replay" => sim::run_traced_rounds(args.seed, secs, &mut rec, &mut spans),
                w => unreachable!("workload {w} passed the argument check"),
            }
            if i > 0 {
                rec.note(format!("{pass}: companion pass at its minimum length"));
            }
        }
    } else {
        match args.workload.as_str() {
            "kernels" => kernels::run(args.seed, secs, workers, &mut rec),
            "serve-open" => serve::run(args.seed, secs, workers, &mut rec),
            "sim-replay" => sim::run_rounds(args.seed, secs, &mut rec),
            w => unreachable!("workload {w} passed the argument check"),
        }
    }

    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => rec.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                rec.count(0, 1);
            }
        }
    }
    for n in &rec.notes {
        println!("# {n}");
    }
    println!("{}", rec.to_json());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn a_full_command_line_parses() {
        let a = args("--workload serve-open --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-open", 7, 20, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload kernels --trace 2",
            "--workload kernels --seconds 0",
            "--workload kernels --seed",
            "--workload kernels --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
