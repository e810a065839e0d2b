//! Holds the pinned workloads of [`adpf_bench::baseline::ROWS`] to their
//! gates. Timing is `benchmark/run.sh`'s job.
//!
//! ```text
//! baseline --check                        # every default row × driver × listed thread count
//! baseline --check e14 scale-1m           # only these rows (slow rows run only when named)
//! baseline --check --metrics-out m.jsonl  # the smoke row's export is written, then validated from disk
//! ```
//!
//! `--check` prints one `name driver threads=… hash=… ok|FAILED(…
//! expected …, got …)` line per run, runs everything it was asked to even
//! after a failure, and exits non-zero if any run failed.

use std::process::ExitCode;

use adpf_bench::baseline::{check, select, Row, ROWS};
use adpf_bench::cli::{Args, CliError};

fn usage() -> String {
    format!(
        "usage: baseline --check [--threads-list 1,2,4,8] [--metrics-out PATH] [ROW…]\nrows: {}",
        ROWS.map(|r| r.name).join(" ")
    )
}

/// A parsed command line.
#[derive(Debug)]
struct Opts {
    rows: Vec<Row>,
    threads_list: Option<Vec<usize>>,
    metrics_out: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, CliError> {
    let mut args = Args::new(args, &["--check"])?;
    let checking = args.has("--check");
    let threads_list = args.value("--threads-list", |v| {
        let parsed: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
        let positives = parsed.ok().filter(|t| !t.contains(&0));
        positives.ok_or_else(|| "wants comma-separated positives".into())
    })?;
    let metrics_out = args.get("--metrics-out")?;
    let names = args.positionals();
    args.finish()?;
    if !checking {
        return Err(CliError::Invalid("`--check` is required".into()));
    }
    Ok(Opts {
        rows: select(&names).map_err(CliError::Invalid)?,
        threads_list,
        metrics_out,
    })
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(CliError::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(CliError::Invalid(why)) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let (threads, emit) = (o.threads_list.as_deref(), |l: &str| println!("{l}"));
    match check(&o.rows, threads, o.metrics_out.as_deref(), emit) {
        0 => ExitCode::SUCCESS,
        failed => {
            eprintln!("baseline --check: {failed} run(s) FAILED");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Opts, CliError> {
        parse(s.split_whitespace().map(String::from))
    }

    fn why(s: &str) -> String {
        match parse_str(s) {
            Err(CliError::Invalid(why)) => why,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_an_unknown_flag_a_missing_value_a_bad_value_and_helps() {
        assert_eq!(why("--check --chek"), "unknown flag `--chek`");
        assert_eq!(why("--label x"), "unknown flag `--label`");
        assert_eq!(why("--check --out x"), "unknown flag `--out`");
        assert_eq!(
            why("--check --threads-list 1,0"),
            "`--threads-list 1,0`: wants comma-separated positives"
        );
        assert!(why("--check no-such-row").starts_with("unknown row `no-such-row`"));
        assert_eq!(why("smoke"), "`--check` is required");
        assert!(matches!(parse_str("-h"), Err(CliError::Help)));
    }

    #[test]
    fn rows_and_threads_parse() {
        let o = parse_str("--check e14 smoke --threads-list 1,2").unwrap();
        assert_eq!(
            o.rows.iter().map(|r| r.name).collect::<Vec<_>>(),
            ["smoke", "e14"]
        );
        assert_eq!(o.threads_list, Some(vec![1, 2]));
    }
}
