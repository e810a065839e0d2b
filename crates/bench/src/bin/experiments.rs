//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments all            # every experiment at quick scale
//! experiments e7 e10         # selected experiments
//! experiments all --full     # paper-scale populations (slow)
//! experiments e7 --threads 4   # sharded simulator on 4 worker threads
//! ```
//!
//! Stdout carries the tables alone; progress lines, with each
//! experiment's wall time, go to stderr. Every table depends on the scale
//! alone, so stdout is the same at every thread count; timing is judged
//! by `benchmark/`. The ids E17 and E20 are retired. The exit status is
//! non-zero when a table fails one of its checks (each failure is named
//! on stderr).

use std::process::ExitCode;
use std::time::Instant;

use adpf_bench::cli::{positive, Args, CliError};
use adpf_bench::{all_ids, run_experiment_threads, Scale};

const USAGE: &str = "\
usage: experiments [all | e1 … e22]… [--full] [--threads N]
Regenerates the paper's tables: the named experiments, or with no id
(or `all`) every one but e9, which prints with e8. --full runs the
paper-scale populations.";

/// A parsed command line.
#[derive(Debug)]
struct Opts {
    ids: Vec<&'static str>,
    scale: Scale,
    threads: usize,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, CliError> {
    let mut args = Args::new(args, &["--full"])?;
    let scale = if args.has("--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let threads = args.value("--threads", positive)?.unwrap_or(1);
    let named = args.positionals();
    args.finish()?;
    let known = all_ids();
    let mut ids = Vec::new();
    for name in named.iter().map(|n| n.to_ascii_lowercase()) {
        match known.iter().find(|&&id| id == name) {
            Some(&id) => ids.push(id),
            None if name == "all" => {}
            None => {
                let known = known.join(", ");
                let why = format!("unknown experiment `{name}`; known: {known}");
                return Err(CliError::Invalid(why));
            }
        }
    }
    // No id, or an `all` among them, runs every experiment; E9 is printed
    // as part of E8.
    if ids.len() < named.len() || ids.is_empty() {
        ids = known.into_iter().filter(|&id| id != "e9").collect();
    }
    Ok(Opts {
        ids,
        scale,
        threads,
    })
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Invalid(why)) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "adprefetch experiment harness — scale: {:?} (pass --full for paper-scale populations)\n",
        o.scale
    );
    let mut failed = false;
    for &id in &o.ids {
        let t0 = Instant::now();
        let tables =
            run_experiment_threads(id, o.scale, o.threads).expect("ids are checked at parse");
        for table in tables {
            println!("{table}");
            for check in &table.failed {
                eprintln!("{}: check failed: {check}", table.id);
                failed = true;
            }
        }
        println!();
        eprintln!("[{} done in {:.1}s]", id, t0.elapsed().as_secs_f64());
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
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
        assert_eq!(why("e13 --ful"), "unknown flag `--ful`");
        assert_eq!(why("e13 --thread 3"), "unknown flag `--thread`");
        assert_eq!(why("e13 --metrics"), "unknown flag `--metrics`");
        assert_eq!(why("e13 --threads"), "`--threads` is missing its value");
        assert_eq!(why("e13 --threads 0"), "`--threads 0`: must be at least 1");
        assert!(why("e13 e99").starts_with("unknown experiment `e99`"));
        assert!(why("e17").starts_with("unknown experiment `e17`"));
        assert!(why("all e99").starts_with("unknown experiment `e99`"));
        assert!(matches!(parse_str("--help"), Err(CliError::Help)));
    }

    #[test]
    fn ids_default_to_every_experiment_but_e9() {
        let o = parse_str("E13 e7 --threads 2 --full").unwrap();
        assert_eq!(o.ids, ["e13", "e7"]);
        assert_eq!((o.threads, o.scale), (2, Scale::Full));
        let every = parse_str("").unwrap().ids;
        assert_eq!(every.len(), all_ids().len() - 1);
        assert!(!every.contains(&"e9"));
        assert_eq!(parse_str("e7 all").unwrap().ids, every);
    }
}
