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

use adpf_bench::cli::{CliError, Input, Population, SimulateArgs};
use adpf_core::{default_shards, DeliveryMode, SimReport, Simulator, SystemConfig};
use adpf_energy::BatteryModel;
use adpf_obs::{render_table, to_json_lines, MetricRegistry};
use adpf_traces::{csv, shard_ranges, Trace};

const USAGE: &str = "\
usage: simulate [--trace FILE | --preset iphone|wp|small]
                [--stream] [--users N] [--days N]
                [--mode realtime|prefetch|both]
                [--interval-h N] [--deadline-h N] [--sla P]
                [--predictor session|day-hour|tod|markov|mean|oracle|zero]
                [--planner greedy|fixed-K|none]
                [--radio 3g|lte|wifi] [--seed N] [--threads N]
                [--netem off|flaky|degraded|blackout] [--netem-retries N]
                [--marketplace off|static|paced] [--pricing first|second]
                [--floor PRICE]
                [--scenario mixed|churn|flashcrowd]
                [--metrics] [--metrics-out FILE]";

/// Where the slot events come from.
enum Source {
    /// The default path: a fully materialized trace.
    Trace(Trace),
    /// `--stream` with a synthetic population: shards regenerate their
    /// user range on the worker that consumes it, scenario transforms
    /// included.
    Population(Population),
    /// `--stream --trace`: shards re-read the CSV file, keeping only
    /// their own user range, so peak memory is O(users-per-shard ×
    /// threads) no matter how large the recording is.
    File {
        path: String,
        users: u32,
        horizon_ms: u64,
    },
}

impl Source {
    /// Opens the input, printing its `trace:` line: streamed inputs keep
    /// a population or the file's dimensions, the default path loads or
    /// generates the whole trace up front.
    fn open(
        input: Input,
        stream: bool,
        threads: usize,
        pipeline: &MetricRegistry,
    ) -> Result<Self, String> {
        Ok(match input {
            Input::Csv(path) if stream => {
                let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
                let (users, horizon_ms) = csv::trace_dims(file).map_err(|e| e.to_string())?;
                println!(
                    "trace: {users} users, {} shards (streaming from {path}, {threads} threads)\n",
                    default_shards(users)
                );
                Source::File {
                    path,
                    users,
                    horizon_ms,
                }
            }
            Input::Synthetic(pop) if stream => {
                let p = pop.base();
                let scenario = match &pop {
                    Population::Scenario(s) => format!("scenario {}, ", s.spec.name),
                    Population::Plain(_) => String::new(),
                };
                println!(
                    "trace: {} users, {} days, {} shards (streaming, {scenario}{threads} threads)\n",
                    p.num_users,
                    p.days,
                    default_shards(p.num_users),
                );
                Source::Population(pop)
            }
            input => {
                let gen_start = Instant::now();
                let trace = match input {
                    Input::Csv(path) => {
                        let file =
                            File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
                        csv::read_trace(file).map_err(|e| e.to_string())?
                    }
                    // Generation parallelizes over the simulation's thread
                    // budget, and is byte-identical at any count.
                    Input::Synthetic(pop) => pop.generate_parallel(threads),
                };
                pipeline.add_time_ns("phase.trace_gen", gen_start.elapsed().as_nanos() as u64);
                println!(
                    "trace: {} users, {} sessions, {} days ({threads} threads)\n",
                    trace.num_users(),
                    trace.sessions().len(),
                    trace.days(),
                );
                Source::Trace(trace)
            }
        })
    }

    /// Runs one config: [`Simulator::run_trace`] for a materialized
    /// trace, [`Simulator::run_shards`] for the streamed ones.
    fn run(&self, cfg: &SystemConfig, threads: usize) -> SimReport {
        match self {
            Source::Trace(t) => Simulator::run_trace(cfg, t, threads),
            Source::Population(p) => {
                let users = p.base().num_users;
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
                    csv::read_trace_shard(file, ranges[i].clone(), *horizon_ms).unwrap_or_else(
                        |e| {
                            eprintln!("{e}");
                            std::process::exit(1)
                        },
                    )
                })
            }
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
    let o = match SimulateArgs::parse(std::env::args().skip(1)) {
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
    match run(o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

fn run(o: SimulateArgs) -> Result<(), String> {
    // `--metrics` prints each run's registry, `--metrics-out` exports it.
    // Every run keeps one; reading it never changes a report — see the
    // observability test suite.
    let pipeline = MetricRegistry::new();
    let SimulateArgs {
        input,
        configs,
        threads,
        stream,
        metrics,
        metrics_out,
    } = o;
    let source = Source::open(input, stream, threads, &pipeline)?;

    let mut exports = String::new();
    let mut reports = Vec::new();
    for cfg in &configs {
        let label = match cfg.mode {
            DeliveryMode::RealTime => "realtime",
            DeliveryMode::Prefetch => "prefetch",
        };
        let report = source.run(cfg, threads);
        if metrics {
            println!("metrics ({label}):\n{}", render_table(&report.metrics));
        }
        if metrics_out.is_some() {
            exports.push_str(&to_json_lines(&report.metrics, label));
        }
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

    if metrics {
        println!("metrics (pipeline):\n{}", render_table(&pipeline));
    }
    if let Some(path) = &metrics_out {
        exports.push_str(&to_json_lines(&pipeline, "pipeline"));
        std::fs::write(path, &exports).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}
