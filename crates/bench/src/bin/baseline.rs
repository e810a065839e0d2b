//! Holds the pinned workloads of [`adpf_bench::baseline::ROWS`] to their
//! gates, or records them into `BENCH_baseline.json`. Timing is
//! `benchmark/run.sh`'s job.
//!
//! ```text
//! baseline --check                        # every default row × driver × listed thread count
//! baseline --check e14 scale-1m           # only these rows (slow rows run only when named)
//! baseline --check --metrics-out m.jsonl  # the smoke row's export is written, then validated from disk
//! baseline --label my-change smoke e14 --threads-list 1   # append entries to BENCH_baseline.json
//! ```
//!
//! `--check` prints one `name driver threads=… hash=… ok|FAILED(…
//! expected …, got …)` line per run, runs everything it was asked to even
//! after a failure, and exits non-zero if any run failed.

use std::process::ExitCode;

use adpf_bench::baseline::{check, record, select, ROWS};

fn usage() -> String {
    format!(
        "usage: baseline (--check | --label NAME) [--out PATH] [--threads-list 1,2,4,8] \
         [--metrics-out PATH] [ROW…]\nrows: {}",
        ROWS.map(|r| r.name).join(" ")
    )
}

fn main() -> ExitCode {
    match cli(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

fn cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut checking = false;
    let mut label: Option<String> = None;
    let mut out = String::from("BENCH_baseline.json");
    let mut threads_list: Option<Vec<usize>> = None;
    let mut metrics_out: Option<String> = None;
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => checking = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return Ok(());
            }
            flag @ ("--label" | "--out" | "--threads-list" | "--metrics-out") => {
                let missing = || format!("flag `{flag}` is missing its value");
                let value = args.next().ok_or_else(missing)?;
                match flag {
                    "--label" => label = Some(value),
                    "--out" => out = value,
                    "--metrics-out" => metrics_out = Some(value),
                    _ => {
                        let parsed: Result<Vec<usize>, _> =
                            value.split(',').map(str::parse).collect();
                        let positives = parsed.ok().filter(|t| !t.contains(&0));
                        threads_list = Some(
                            positives.ok_or("--threads-list wants comma-separated positives")?,
                        );
                    }
                }
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()));
            }
            _ => names.push(arg),
        }
    }
    let rows = select(&names)?;
    let threads = threads_list.as_deref();
    match (checking, label) {
        (true, None) => match check(&rows, threads, metrics_out.as_deref(), |l| println!("{l}")) {
            0 => Ok(()),
            failed => Err(format!("baseline --check: {failed} run(s) FAILED")),
        },
        (false, Some(label)) => {
            let n = record(&rows, threads, &label, &out, |l| println!("{l}"))
                .map_err(|e| format!("failed to write {out}: {e}"))?;
            println!("recorded {n} entries into {out}");
            Ok(())
        }
        _ => Err(format!("pick one of --check and --label\n{}", usage())),
    }
}
