//! `bench`: the benchmark's command line.
//!
//! ```text
//! bench --workload W --seed S --seconds T --trace 0|1   one run (the contract's form)
//! bench run   [--reps N] [--seed S] [--traced]          every workload, medians and quartiles
//! bench check                                           two full sets on ten seeds, every cell within its bound
//! ```
//!
//! Every form also takes `--seconds T`, `--scale X` (population
//! multiplier, for smoke tests) and `--out DIR` (where trace files go).
//! Any failed correctness check exits non-zero.

use std::io::Write;
use std::process::ExitCode;

use adpf_benchmark::calib;
use adpf_benchmark::catalog::{DEFAULT_SEED, RUN_SECONDS};
use adpf_benchmark::one::{self, RunArgs};
use adpf_benchmark::runner::{self, ChildSettings};
use adpf_benchmark::workloads;

const USAGE: &str =
    "usage: bench --workload W --seed S --seconds T --trace 0|1 [--scale X] [--out DIR]
       bench run   [--reps N] [--seed S] [--seconds T] [--traced] [--scale X] [--out DIR]
       bench check [--seconds T] [--scale X] [--out DIR]";

/// Flags of every form, parsed into one bag; each form reads its own.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out_dir: String,
    reps: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        out_dir: "benchmark/out".to_string(),
        reps: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            f.trace = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.to_string()),
            "--seed" => f.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                f.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 4.0)
                    .ok_or_else(|| bad("a scale in (0, 4]"))?
            }
            "--out" => f.out_dir = value.to_string(),
            "--reps" => {
                f.reps = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a positive count"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

fn report(problems: Vec<String>) -> ExitCode {
    if problems.is_empty() {
        println!("all checks passed");
        return ExitCode::SUCCESS;
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(calib::CHILD_ARG) {
        let scale = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
        calib::child_main(scale);
        return ExitCode::SUCCESS;
    }
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "check")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = ChildSettings {
        seconds: flags.seconds,
        scale: flags.scale,
        out_dir: flags.out_dir.clone(),
    };
    match command {
        "run" => report(runner::run_all(
            flags.seed,
            flags.reps,
            flags.trace,
            &settings,
        )),
        "check" => report(runner::check(&settings)),
        _ => {
            let Some(workload) = flags.workload.as_deref().and_then(workloads::by_name) else {
                eprintln!("--workload must name one of the six workloads\n{USAGE}");
                return ExitCode::from(2);
            };
            let result = match one::run(&RunArgs {
                workload,
                seed: flags.seed,
                seconds: flags.seconds,
                traced: flags.trace,
                scale: flags.scale,
                out_dir: flags.out_dir,
            }) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for v in &result.violations {
                eprintln!("FAILED: {v}");
            }
            // A reader that stops early (`| head -1`) must not turn into
            // a panic here, so write errors are dropped.
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{}", result.info_line());
            let _ = writeln!(out, "{}", result.result_line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
