//! Runs the ad-delivery simulator on a CSV trace (or a synthetic preset)
//! and prints the full report, including battery terms.
//!
//! Usage:
//!
//! ```text
//! simulate --trace trace.csv --mode prefetch --interval-h 2 --deadline-h 12
//! simulate --preset small --mode both --radio lte
//! simulate --preset iphone --threads 4
//! ```
//!
//! `--mode both` runs real-time and prefetch on the same trace and prints
//! the comparison (energy savings, revenue loss, SLA violations).
//!
//! Every run goes through the sharded simulator
//! ([`Simulator::run_trace`]); the logical shard count derives from
//! the population size alone, and `--threads N` only spreads those
//! shards (and trace generation) over N OS threads, so the report for a
//! given trace and seed is identical at every thread count.
//!
//! `--stream` switches to the bounded-memory pipeline
//! ([`Simulator::run_shards`]): each shard materializes its own user
//! range on the worker that consumes it, so the full trace never exists
//! in memory and peak RSS stays O(users-per-shard × threads) instead of
//! O(population). With a synthetic preset each shard *generates* its
//! range; with `--trace` each shard *re-reads the file* keeping only
//! its range (`csv::read_trace_shard`), so recorded traces far larger
//! than RAM replay the same way. Combined with `--users`/`--days`
//! overrides this makes million-user synthetic runs routine:
//!
//! ```text
//! simulate --stream --preset iphone --users 1000000 --days 1 --mode prefetch
//! simulate --stream --trace recorded.csv --mode both
//! ```
//!
//! Streaming reports are byte-identical to the default path on the same
//! population (see `tests/streaming.rs`).

use std::fs::File;
use std::process::ExitCode;
use std::time::Instant;

use adpf_bench::cli::{
    build_config, build_population, build_scenario, parse_simulate_args, CliError, SimulateOpts,
};
use adpf_core::scenario::ScenarioPopulation;
use adpf_core::{default_shards, DeliveryMode, SimReport, Simulator};
use adpf_energy::BatteryModel;
use adpf_obs::{render_table, to_json_lines, MetricRegistry};
use adpf_traces::{csv, shard_ranges, PopulationConfig, Trace};

fn usage() {
    eprintln!(
        "usage: simulate [--trace FILE | --preset iphone|wp|small]\n\
         \x20                [--stream] [--users N] [--days N]\n\
         \x20                [--mode realtime|prefetch|both]\n\
         \x20                [--interval-h N] [--deadline-h N] [--sla P]\n\
         \x20                [--predictor session|day-hour|tod|markov|mean|oracle|zero]\n\
         \x20                [--planner greedy|fixed-K|none]\n\
         \x20                [--radio 3g|lte|wifi] [--seed N] [--threads N]\n\
         \x20                [--netem off|flaky|degraded|blackout] [--netem-retries N]\n\
         \x20                [--marketplace off|static|paced] [--pricing first|second]\n\
         \x20                [--floor PRICE]\n\
         \x20                [--scenario mixed|churn|flashcrowd]\n\
         \x20                [--metrics] [--metrics-out FILE]"
    );
}

fn load_trace(o: &SimulateOpts) -> Result<Trace, String> {
    if let Some(path) = &o.trace {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return csv::read_trace(file).map_err(|e| e.to_string());
    }
    // Generation parallelizes over the same thread budget as the
    // simulation, and is byte-identical at any count. A scenario wraps
    // the same base population with its trace-side transforms.
    if let Some(pop) = build_scenario(o)? {
        return Ok(pop.generate_parallel(o.threads));
    }
    Ok(build_population(o)?.generate_parallel(o.threads))
}

/// Where the slot events come from: the three supply modes of the CLI.
enum Source {
    /// The default path: a fully materialized trace.
    Trace(Trace),
    /// `--stream` with a synthetic preset: shards regenerate their
    /// user range on the worker that consumes it. Boxed so the rare
    /// streaming variant doesn't inflate the common `Trace` one.
    Synthetic(Box<PopulationConfig>),
    /// `--stream --scenario`: like `Synthetic`, but each shard applies
    /// the scenario's trace-side transforms to its own user range — the
    /// scenario layers ride the bounded-memory pipeline unchanged.
    Scenario(Box<ScenarioPopulation>),
    /// `--stream --trace`: shards re-read the CSV file, keeping only
    /// their own user range, so peak memory is O(users-per-shard ×
    /// threads) no matter how large the recording is.
    File {
        path: String,
        users: u32,
        horizon_ms: u64,
    },
}

/// Runs one config against the source: [`Simulator::run_trace`] for a
/// materialized trace, [`Simulator::run_shards`] for the streamed ones.
fn run_source(
    cfg: &adpf_core::SystemConfig,
    source: &Source,
    threads: usize,
) -> (SimReport, MetricRegistry) {
    match source {
        Source::Trace(t) => Simulator::run_trace(cfg, t, threads),
        Source::Synthetic(p) => {
            let n = default_shards(p.num_users);
            Simulator::run_shards(cfg, p.num_users, n, threads, |i| p.generate_shard(i, n))
        }
        Source::Scenario(p) => {
            let users = p.num_users();
            let n = default_shards(users);
            Simulator::run_shards(cfg, users, n, threads, |i| p.generate_shard(i, n))
        }
        Source::File {
            path,
            users,
            horizon_ms,
        } => {
            let n = default_shards(*users);
            let ranges = shard_ranges(*users, n);
            // Workers re-open the file per shard; a read failure here is
            // unrecoverable mid-pipeline (the file was validated by
            // trace_dims at startup), so fail the whole process.
            Simulator::run_shards(cfg, *users, n, threads, |i| {
                let file = File::open(path).unwrap_or_else(|e| {
                    eprintln!("cannot reopen {path}: {e}");
                    std::process::exit(1)
                });
                csv::read_trace_shard(file, ranges[i].clone(), *horizon_ms).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1)
                })
            })
        }
    }
}

fn print_report(report: &SimReport) {
    println!("{}", report.summary());
    let battery = BatteryModel::smartphone_2012();
    println!(
        "  battery: ad traffic burns {:.2}% of a {:.0} J battery per user-day\n",
        battery.daily_ad_drain(&report.energy, report.users, report.days) * 100.0,
        battery.capacity_j
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_simulate_args(&args) {
        Ok(o) => o,
        Err(CliError::Help) => {
            usage();
            return ExitCode::FAILURE;
        }
        Err(CliError::Invalid(reason)) => {
            eprintln!("{reason}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // `--metrics` prints each run's registry, `--metrics-out` exports it.
    // Every run keeps one; reading it never changes a report — see the
    // observability test suite.
    let pipeline = MetricRegistry::new();

    // Streaming never materializes the trace — it keeps a population
    // config (synthetic) or the file's dimensions (recorded); the
    // classic path loads/generates the whole trace up front.
    let source = if opts.stream {
        if let Some(path) = &opts.trace {
            let dims = File::open(path)
                .map_err(|e| format!("cannot open {path}: {e}"))
                .and_then(|f| csv::trace_dims(f).map_err(|e| e.to_string()));
            let (users, horizon_ms) = match dims {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "trace: {} users, {} shards (streaming from {path}, {} threads)\n",
                users,
                default_shards(users),
                opts.threads
            );
            Source::File {
                path: path.clone(),
                users,
                horizon_ms,
            }
        } else if let Some(pop) = match build_scenario(&opts) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        } {
            println!(
                "trace: {} users, {} days, {} shards (streaming, scenario {}, {} threads)\n",
                pop.num_users(),
                pop.days(),
                default_shards(pop.num_users()),
                pop.spec.name,
                opts.threads
            );
            Source::Scenario(Box::new(pop))
        } else {
            let pop = match build_population(&opts) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "trace: {} users, {} days, {} shards (streaming, {} threads)\n",
                pop.num_users,
                pop.days,
                default_shards(pop.num_users),
                opts.threads
            );
            Source::Synthetic(Box::new(pop))
        }
    } else {
        let gen_start = Instant::now();
        let trace = match load_trace(&opts) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        pipeline.add_time_ns("phase.trace_gen", gen_start.elapsed().as_nanos() as u64);
        println!(
            "trace: {} users, {} sessions, {} days ({} threads)\n",
            trace.num_users(),
            trace.sessions().len(),
            trace.days(),
            opts.threads
        );
        Source::Trace(trace)
    };

    let modes: &[(DeliveryMode, &str)] = match opts.mode.as_str() {
        "realtime" => &[(DeliveryMode::RealTime, "realtime")],
        "prefetch" => &[(DeliveryMode::Prefetch, "prefetch")],
        "both" => &[
            (DeliveryMode::RealTime, "realtime"),
            (DeliveryMode::Prefetch, "prefetch"),
        ],
        other => {
            eprintln!("unknown mode `{other}`");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let mut exports = String::new();
    let mut reports = Vec::new();
    for &(mode, label) in modes {
        let report = match build_config(&opts, mode) {
            Ok(cfg) => {
                let (r, reg) = run_source(&cfg, &source, opts.threads);
                if opts.metrics {
                    println!("metrics ({label}):\n{}", render_table(&reg));
                }
                if opts.metrics_out.is_some() {
                    exports.push_str(&to_json_lines(&reg, label));
                }
                r
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        print_report(&report);
        reports.push(report);
    }
    if let [rt, pf] = reports.as_slice() {
        println!(
            "energy savings {:.1}%   revenue loss {:.2}%   SLA violations {:.2}%",
            pf.energy_savings_vs(rt) * 100.0,
            pf.revenue_loss_vs(rt) * 100.0,
            pf.sla_violation_rate() * 100.0
        );
    }

    if opts.metrics {
        println!("metrics (pipeline):\n{}", render_table(&pipeline));
    }
    if let Some(path) = &opts.metrics_out {
        exports.push_str(&to_json_lines(&pipeline, "pipeline"));
        if let Err(e) = std::fs::write(path, &exports) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    ExitCode::SUCCESS
}
