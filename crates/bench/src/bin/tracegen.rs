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

use adpf_core::scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_traces::{csv, PopulationConfig, Trace, TraceStats};

fn usage() {
    eprintln!(
        "usage: tracegen [--preset iphone|wp|small] [--users N] [--days N] [--seed N]\n\
         \x20               [--threads N] [--out FILE] [--events] [--refresh-ms N]\n\
         \x20               [--pace RATE] [--scenario mixed|churn|flashcrowd]\n\
         Generates a synthetic app-usage trace in the adprefetch CSV format,\n\
         or (with --events) the serve wire protocol for the `serve` binary.\n\
         --threads parallelizes generation; the output is identical at any count.\n\
         --pace throttles event emission to RATE events/s (requires --events)."
    );
}

/// Parsed command line; `None` means print usage and fail.
struct Opts {
    preset: String,
    users: Option<u32>,
    days: Option<u32>,
    seed: u64,
    threads: usize,
    out: Option<String>,
    events: bool,
    refresh_ms: u64,
    pace: Option<f64>,
    scenario: Option<String>,
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        preset: "iphone".to_string(),
        users: None,
        days: None,
        seed: 42,
        threads: 1,
        out: None,
        events: false,
        refresh_ms: 30_000,
        pace: None,
        scenario: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return None;
        }
        if flag == "--events" {
            opts.events = true;
            i += 1;
            continue;
        }
        let value = args.get(i + 1)?;
        match flag {
            "--preset" => opts.preset = value.clone(),
            "--users" => opts.users = Some(value.parse().ok()?),
            "--days" => opts.days = Some(value.parse().ok()?),
            "--seed" => opts.seed = value.parse().ok()?,
            "--threads" => {
                opts.threads = value.parse().ok().filter(|&n| n >= 1)?;
            }
            "--refresh-ms" => {
                opts.refresh_ms = value.parse().ok().filter(|&n| n >= 1)?;
            }
            "--pace" => {
                opts.pace = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&r: &f64| r.is_finite() && r > 0.0)?,
                );
            }
            "--scenario" => opts.scenario = Some(value.clone()),
            "--out" => opts.out = Some(value.clone()),
            other => {
                eprintln!("unknown flag `{other}`");
                return None;
            }
        }
        i += 2;
    }
    Some(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else {
        usage();
        return ExitCode::FAILURE;
    };

    let mut cfg = match opts.preset.as_str() {
        "iphone" => PopulationConfig::iphone_like(opts.seed),
        "wp" => PopulationConfig::windows_phone_like(opts.seed),
        "small" => PopulationConfig::small_test(opts.seed),
        other => {
            eprintln!("unknown preset `{other}` (expected iphone, wp, or small)");
            usage();
            return ExitCode::FAILURE;
        }
    };
    cfg.seed = opts.seed;
    if let Some(u) = opts.users {
        cfg.num_users = u;
    }
    if let Some(d) = opts.days {
        cfg.days = d;
    }
    if cfg.num_users == 0 || cfg.days == 0 {
        eprintln!("--users and --days must be positive");
        return ExitCode::FAILURE;
    }
    if opts.pace.is_some() && !opts.events {
        eprintln!("--pace throttles the serve event stream; it requires --events");
        return ExitCode::FAILURE;
    }

    let trace: Trace = match &opts.scenario {
        Some(name) => match ScenarioSpec::parse_preset(name) {
            Ok(spec) => ScenarioPopulation::new(cfg, spec).generate_parallel(opts.threads),
            Err(e) => {
                eprintln!("{e}");
                usage();
                return ExitCode::FAILURE;
            }
        },
        None => cfg.generate_parallel(opts.threads),
    };
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
