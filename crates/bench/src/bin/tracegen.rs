//! Generates synthetic usage traces in the CSV trace format.
//!
//! Usage:
//!
//! ```text
//! tracegen --preset iphone --out trace.csv
//! tracegen --users 500 --days 14 --seed 7 --out trace.csv
//! tracegen --preset iphone --threads 4   # parallel generation, same bytes
//! tracegen --preset wp            # writes to stdout
//! tracegen --preset small --seed 777 --events | serve --seed 5   # serve wire stream
//! ```
//!
//! `--events` switches the output from the CSV trace format to the
//! newline-delimited serve protocol (`adpf_serve::protocol`): the
//! trace's ad-slot stream, globally time-sorted, ready to pipe into the
//! `serve` binary or any other ingest endpoint. `--refresh-ms` sets the
//! slot refresh cadence and defaults to the simulator's 30 s
//! `ad_refresh`, so the default stream replays exactly the slots the
//! batch simulator would decide.
//!
//! `--pace RATE` (with `--events`) throttles emission to RATE events per
//! wall-clock second — the sub-saturation load generator for serve
//! latency measurements. The bytes are identical to the unpaced stream.
//!
//! `--scenario mixed|churn|flashcrowd` applies the scenario's trace-side
//! transforms (device-class session shapes, churn, bursts) before
//! writing, so a downstream `serve --scenario` sees the matching stream.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use adpf_bench::cli::{positive, Args, CliError, Population};
use adpf_traces::{csv, PopulationConfig, TraceStats};

const USAGE: &str = "\
usage: tracegen [--preset iphone|wp|small] [--users N] [--days N] [--seed N]
                [--threads N] [--out FILE] [--events] [--refresh-ms N]
                [--pace RATE] [--scenario mixed|churn|flashcrowd]
Generates a synthetic app-usage trace in the adprefetch CSV format,
or (with --events) the serve wire protocol for the `serve` binary.
--threads parallelizes generation; the output is identical at any count.
--pace throttles event emission to RATE events/s (requires --events).";

/// A parsed command line.
#[derive(Debug)]
struct Opts {
    population: Population,
    threads: usize,
    out: Option<String>,
    events: bool,
    refresh_ms: u64,
    pace: Option<f64>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, CliError> {
    let mut args = Args::new(args, &["--events"])?;
    let seed = args.get("--seed")?.unwrap_or(42);
    let population = Population::read(&mut args, PopulationConfig::iphone_like, seed)?;
    let opts = Opts {
        population,
        threads: args.value("--threads", positive)?.unwrap_or(1),
        out: args.get("--out")?,
        events: args.has("--events"),
        refresh_ms: args.value("--refresh-ms", positive)?.unwrap_or(30_000),
        pace: args.value("--pace", |v| match v.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => Ok(r),
            _ => Err("must be finite and > 0".into()),
        })?,
    };
    args.finish()?;
    if opts.population.base().num_users == 0 {
        return Err(CliError::Invalid("--users must be at least 1".into()));
    }
    if opts.pace.is_some() && !opts.events {
        return Err(CliError::Invalid(
            "--pace throttles the serve event stream; it requires --events".into(),
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
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
    let trace = opts.population.generate_parallel(opts.threads);
    let refresh = adpf_desim::SimDuration::from_millis(opts.refresh_ms);
    let stats = TraceStats::compute(&trace, refresh);
    eprintln!(
        "generated {} users x {} days: {} sessions, {} ad slots ({:.1} slots/user/day)",
        stats.users, stats.days, stats.sessions, stats.slots, stats.slots_per_user_day.mean
    );

    // Either format streams through a writer; the serve protocol emits
    // the slot stream a server would ingest, CSV emits the sessions.
    let emit = |mut w: &mut dyn Write| -> io::Result<()> {
        if let Some(rate) = opts.pace {
            adpf_serve::write_events_paced(&trace, refresh, rate, &mut w)?;
        } else if opts.events {
            adpf_serve::write_events(&trace, refresh, &mut w)?;
        } else {
            csv::write_trace(&trace, &mut w).map_err(io::Error::other)?;
        }
        w.flush()
    };
    let result = match opts.out {
        Some(path) => File::create(&path).and_then(|file| emit(&mut BufWriter::new(file))),
        None => {
            let stdout = io::stdout();
            emit(&mut BufWriter::new(stdout.lock()))
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("write failed: {e}");
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

    #[test]
    fn rejects_an_unknown_flag_a_missing_value_a_bad_value_and_helps() {
        let why = |s| match parse_str(s) {
            Err(CliError::Invalid(why)) => why,
            other => panic!("expected a rejection, got {other:?}"),
        };
        assert_eq!(why("--event"), "unknown flag `--event`");
        assert_eq!(why("--out"), "`--out` is missing its value");
        assert_eq!(why("--seed x"), "`--seed x`: invalid digit found in string");
        assert!(parse_str("--users 0").is_err());
        assert!(parse_str("--pace 100").is_err(), "--pace needs --events");
        assert!(matches!(parse_str("--help"), Err(CliError::Help)));
    }

    #[test]
    fn defaults_to_the_iphone_population_at_seed_42() {
        let o = parse_str("").unwrap();
        assert_eq!(
            o.population,
            Population::Plain(Box::new(PopulationConfig::iphone_like(42)))
        );
        assert_eq!(
            (o.threads, o.events, o.refresh_ms, o.pace),
            (1, false, 30_000, None)
        );
        let o = parse_str("--preset small --seed 777 --scenario mixed --events --pace 5").unwrap();
        assert!(matches!(&o.population, Population::Scenario(p) if p.assign_seed() == 777));
    }
}
