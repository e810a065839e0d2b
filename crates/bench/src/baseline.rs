//! Determinism gates and the recorded trajectory.
//!
//! One table, [`ROWS`], names every fixed-seed run this repo pins: its
//! population, its configuration, the drivers it runs under and what must
//! hold of the result. [`run`] is the only place a row is generated and
//! driven; [`check`] holds rows to their gates and [`record`] appends a
//! row's runs to `BENCH_baseline.json`. Because the runs are fixed-seed,
//! the report hash is exact and machine-independent: a change that alters
//! any simulated outcome — even one bit of one float — changes it.
//!
//! Timing claims (throughput, latency, memory under load) belong to
//! `benchmark/`. Nothing here judges a clock against a committed number.

use std::io;
use std::time::Instant;

use adpf_auction::{MarketplaceConfig, PriceFloors, PricingRule};
use adpf_core::scenario::{CellCapacity, CellPolicy, ScenarioPopulation, ScenarioSpec};
use adpf_core::{SimReport, Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_netem::NetemConfig;
use adpf_obs::{to_json_lines, validate_json_lines, MetricSnapshot};
use adpf_traces::PopulationConfig;

/// The smoke row's report hash, which ci.sh's served replay
/// (`SERVE_GOLDEN`) is held to as well; a deliberate behaviour change
/// updates it here and in ci.sh, nowhere else.
pub const SMOKE_GOLDEN: u64 = 0xba08_fcf9_274d_6de0;

/// A row's synthetic population. The seed is part of the workload
/// identity: two runs are comparable only when every field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// [`PopulationConfig::small_test`] with this seed.
    SmallTest(u64),
    /// [`PopulationConfig::iphone_like`] resized: `(users, days, seed)`.
    Iphone(u32, u32, u64),
}

/// How [`run`] drives a row. All three produce the same report for the
/// same row; that equality is what the table gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Materialize the trace, then [`Simulator::run_trace`].
    Parallel,
    /// [`Simulator::run_shards`]: each shard generates its own user
    /// range, so memory is O(users-per-shard × threads). Shard count
    /// comes from [`adpf_core::default_shards`], as in `simulate --stream`.
    Streaming,
    /// Serialize the trace to the wire protocol and replay it through
    /// [`adpf_serve::serve`] in-process; the stream must ingest with no
    /// rejected line and one request per slot.
    Serve,
}

/// Every driver, in the order [`check`] runs them.
const EVERY_DRIVER: &[Driver] = &[Driver::Parallel, Driver::Streaming, Driver::Serve];

impl Driver {
    /// How check lines and recorded workloads name the driver.
    fn name(self) -> &'static str {
        match self {
            Driver::Parallel => "parallel",
            Driver::Streaming => "stream",
            Driver::Serve => "serve",
        }
    }
}

/// One condition a row's outcome must meet besides its hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Ceiling on process peak RSS (VmHWM) in MiB — the tripwire for a
    /// change that re-materializes the full trace before sharding. VmHWM
    /// is a lifetime high-water mark, so rows carrying this gate come
    /// first in [`ROWS`]. Always met where no `/proc` exposes the figure.
    MaxRssMb(f64),
    /// The scenario layer's user-cost counters (metered bytes,
    /// display-latency samples) were populated.
    ScenarioCountersNonZero,
    /// The report's metrics export as JSON lines, non-empty and passing
    /// the schema validator — re-read from disk when [`check`] is given
    /// a `metrics_out` path, since the file is what tooling consumes.
    MetricsExport,
}

/// One pinned run.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Name the row is picked by, and that its first driver's runs are
    /// recorded under as `workload`.
    pub name: &'static str,
    /// The synthetic population.
    pub population: Population,
    /// Scenario layered over the population and installed on the config
    /// (class assignment keyed on the population seed on both halves).
    pub scenario: Option<fn() -> ScenarioSpec>,
    /// The simulator config, before any scenario is installed.
    pub config: fn() -> SystemConfig,
    /// How the row is driven: every driver, unless the row exists to
    /// bound memory or time at scale (an RSS ceiling, or `slow`).
    pub drivers: &'static [Driver],
    /// Worker-thread counts the row runs at; counts above the shard
    /// count cover the more-threads-than-shards regime.
    pub threads: &'static [usize],
    /// The report's [`SimReport::stable_hash`], under every driver at
    /// every thread count.
    pub hash: u64,
    /// What else must hold of every run.
    pub gates: &'static [Gate],
    /// Minutes-long rows, run only when named.
    pub slow: bool,
}

/// The smoke population's delivery config, which the `smoke-*` rows vary.
fn prefetch() -> SystemConfig {
    SystemConfig::prefetch_default(5)
}

fn realtime() -> SystemConfig {
    SystemConfig::realtime(5)
}

/// Misses go to real-time fetches that never carry a sync.
fn no_piggyback() -> SystemConfig {
    SystemConfig {
        piggyback_on_fallback: false,
        ..prefetch()
    }
}

/// Lossy cellular links: failed syncs, retries, rescued ads.
fn flaky() -> SystemConfig {
    SystemConfig {
        netem: NetemConfig::flaky_cellular(),
        ..prefetch()
    }
}

/// Flaky links plus a six-hour blackout of half the population two days
/// in, which outlives retry budgets.
fn outage() -> SystemConfig {
    SystemConfig {
        netem: NetemConfig::flaky_cellular().with_outage(48, SimDuration::from_hours(6), 0.5),
        ..prefetch()
    }
}

/// Pacing controllers and participation throttles over clean links.
fn paced_market() -> SystemConfig {
    SystemConfig {
        marketplace: MarketplaceConfig::paced(),
        ..prefetch()
    }
}

/// The paced market charging first price above a uniform floor: every
/// marketplace mechanism live at once.
fn floored_first_price() -> SystemConfig {
    let mut cfg = paced_market();
    cfg.marketplace.pricing = PricingRule::FirstPrice;
    cfg.marketplace.floors = PriceFloors::uniform(0.0005);
    cfg
}

/// Flaky links in a paced market: retries, pacing ticks and throttles
/// all do work.
fn flaky_paced() -> SystemConfig {
    SystemConfig {
        marketplace: MarketplaceConfig::paced(),
        ..flaky()
    }
}

/// Three periodic syncs in ten dropped before they start.
fn dropout() -> SystemConfig {
    SystemConfig {
        sync_dropout: 0.3,
        ..prefetch()
    }
}

/// The config of the rows over iPhone-like populations.
fn iphone() -> SystemConfig {
    SystemConfig::prefetch_default(1)
}

/// The flash crowd under a ceiling of two fetches per region-minute:
/// tight enough that the overflow policy decides thousands of fetches.
fn capped(policy: CellPolicy) -> ScenarioSpec {
    let mut spec = ScenarioSpec::flash_crowd();
    spec.cell = CellCapacity {
        policy,
        ..CellCapacity::capped(4, 2, SimDuration::from_mins(1))
    };
    spec
}

fn capped_drop() -> ScenarioSpec {
    capped(CellPolicy::Drop)
}

fn capped_defer() -> ScenarioSpec {
    capped(CellPolicy::Defer)
}

/// The `smoke` row: seconds-scale, still exercising every simulator
/// subsystem. The other `smoke-*` rows vary its config or scenario.
const SMOKE: Row = Row {
    name: "smoke",
    population: Population::SmallTest(777),
    scenario: None,
    config: prefetch,
    drivers: EVERY_DRIVER,
    threads: &[1, 2, 4, 8],
    hash: SMOKE_GOLDEN,
    gates: &[Gate::MetricsExport],
    slow: false,
};

/// What the `smoke-*` rows share, name, config, hash and gates aside.
const VARIANT: Row = Row {
    threads: &[1, 2, 8],
    gates: &[],
    ..SMOKE
};

/// The `scale-100k` row; the other `scale-*` rows vary it.
const SCALE_100K: Row = Row {
    name: "scale-100k",
    population: Population::Iphone(100_000, 2, 42),
    scenario: None,
    config: iphone,
    drivers: &[Driver::Streaming],
    threads: &[1],
    hash: 0xfbc5_8485_16c9_6f9a,
    gates: &[],
    slow: true,
};

/// Every pinned run; `baseline` with no row names runs the ones not
/// marked `slow`, in this order.
pub const ROWS: [Row; 25] = [
    // Big enough that materializing its trace first would blow the
    // ceiling several times over (~128 MiB for the trace alone; it
    // streams in ~58 MiB), small enough to stream in seconds. The thread
    // count is fixed because the ceiling assumes two resident shards.
    Row {
        name: "memcheck",
        population: Population::Iphone(100_000, 1, 42),
        hash: 0x5dba_ec35_e607_f63c,
        gates: &[Gate::MaxRssMb(96.0)],
        threads: &[2],
        slow: false,
        ..SCALE_100K
    },
    SMOKE,
    Row {
        name: "smoke-realtime",
        config: realtime,
        hash: 0xcdba_9393_c93e_e236,
        ..VARIANT
    },
    Row {
        name: "smoke-flaky",
        config: flaky,
        hash: 0x557e_6a97_51a0_12d1,
        ..VARIANT
    },
    Row {
        name: "smoke-outage",
        config: outage,
        hash: 0xdda8_a987_389a_e9e6,
        ..VARIANT
    },
    Row {
        name: "smoke-market",
        config: paced_market,
        hash: 0x067d_6408_6fe2_4077,
        ..VARIANT
    },
    Row {
        name: "smoke-market-floored",
        config: floored_first_price,
        hash: 0xee8f_5f64_5873_2ae6,
        ..VARIANT
    },
    Row {
        name: "smoke-paced",
        config: flaky_paced,
        hash: 0x1466_5b69_73c3_9963,
        ..VARIANT
    },
    Row {
        name: "smoke-dropout",
        config: dropout,
        hash: 0x02bb_b377_468f_5f7d,
        ..VARIANT
    },
    // The iPhone dataset's shape parameters at smoke scale.
    Row {
        name: "iphone-60",
        population: Population::Iphone(60, 7, 2013),
        config: iphone,
        hash: 0x9f7b_741e_6479_2595,
        ..VARIANT
    },
    // Every scenario preset under both delivery modes, the mixed one
    // without piggybacking too, and the capped flash crowd dropping
    // (1,093 prefetch-mode fetches; 4,350 real-time) or deferring
    // (1,022; 4,350) what the cell ceiling refuses.
    Row {
        name: "smoke-mixed",
        scenario: Some(ScenarioSpec::mixed),
        hash: 0xddb8_fd9f_23e2_7430,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-mixed-realtime",
        scenario: Some(ScenarioSpec::mixed),
        config: realtime,
        hash: 0xeb0c_5a35_a004_6549,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-mixed-no-piggyback",
        scenario: Some(ScenarioSpec::mixed),
        config: no_piggyback,
        hash: 0x5451_f589_645c_c359,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-churn",
        scenario: Some(ScenarioSpec::churn),
        hash: 0xde65_db09_8721_6443,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-churn-realtime",
        scenario: Some(ScenarioSpec::churn),
        config: realtime,
        hash: 0x316c_41b2_69b2_02d4,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-flashcrowd",
        scenario: Some(ScenarioSpec::flash_crowd),
        hash: 0x8949_83e7_2143_ad19,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-flashcrowd-realtime",
        scenario: Some(ScenarioSpec::flash_crowd),
        config: realtime,
        hash: 0xa21e_72ba_fc13_7557,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-capped-drop",
        scenario: Some(capped_drop),
        hash: 0xc968_711b_7ecb_0098,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-capped-drop-realtime",
        scenario: Some(capped_drop),
        config: realtime,
        hash: 0x39a9_515d_5453_0207,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-capped-defer",
        scenario: Some(capped_defer),
        hash: 0xf6ba_eba9_d28f_aa5d,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "smoke-capped-defer-realtime",
        scenario: Some(capped_defer),
        config: realtime,
        hash: 0x21b3_6ef0_ca94_a8a3,
        gates: &[Gate::ScenarioCountersNonZero],
        ..VARIANT
    },
    Row {
        name: "e14",
        population: Population::Iphone(300, 7, 42),
        config: iphone,
        threads: &[1, 4],
        hash: 0x875d_772f_cf03_8dbf,
        gates: &[],
        ..SMOKE
    },
    SCALE_100K,
    Row {
        name: "scale-100k-mixed",
        scenario: Some(ScenarioSpec::mixed),
        threads: &[2],
        hash: 0x1ebd_65e2_361a_92f7,
        ..SCALE_100K
    },
    Row {
        name: "scale-1m",
        population: Population::Iphone(1_000_000, 1, 42),
        hash: 0xa536_bad7_d08c_6736,
        ..SCALE_100K
    },
];

impl Row {
    /// The row's population config — the single source every driver
    /// generates from (`generate_parallel` materialized and served,
    /// `generate_shard` streamed), which is what keeps them
    /// hash-comparable.
    pub fn population(&self) -> PopulationConfig {
        match self.population {
            Population::SmallTest(seed) => PopulationConfig::small_test(seed),
            Population::Iphone(users, days, seed) => PopulationConfig {
                num_users: users,
                days,
                ..PopulationConfig::iphone_like(seed)
            },
        }
    }

    /// The row's simulator config, scenario layer installed if any.
    fn system_config(&self) -> SystemConfig {
        let mut cfg = (self.config)();
        if let Some(spec) = self.scenario {
            spec().apply_to(&mut cfg, self.population().seed);
        }
        cfg
    }

    /// Whether the row exists to bound memory or time at scale (an RSS
    /// ceiling, or `slow`): such a row streams, and [`check`] holds every
    /// other row to every driver.
    fn at_scale(&self) -> bool {
        self.slow || self.gates.iter().any(|g| matches!(g, Gate::MaxRssMb(_)))
    }
}

/// Resolves row names to rows, in table order (which keeps the RSS-gated
/// rows first however the names were given). No names selects every row
/// not marked `slow`.
pub fn select(names: &[String]) -> Result<Vec<Row>, String> {
    if let Some(unknown) = names.iter().find(|n| ROWS.iter().all(|r| r.name != *n)) {
        let valid = ROWS.map(|r| r.name).join(" ");
        return Err(format!("unknown row `{unknown}` (valid: {valid})"));
    }
    let wanted = |r: &Row| match names {
        [] => !r.slow,
        _ => names.iter().any(|n| n == r.name),
    };
    Ok(ROWS.into_iter().filter(wanted).collect())
}

/// What one [`run`] produced.
#[derive(Debug)]
pub struct Outcome {
    /// The merged report, its metrics inside.
    pub report: SimReport,
    /// Under [`Driver::Serve`], the requests the server decided and the
    /// lines it rejected.
    pub ingest: Option<(u64, u64)>,
    /// Wall-clock seconds of the simulation alone — except under
    /// [`Driver::Streaming`], where generation happens inside the
    /// pipeline and this covers both.
    pub wall_s: f64,
    /// Wall-clock seconds producing the input, at the same thread count:
    /// trace generation, plus wire serialization under [`Driver::Serve`].
    /// Under [`Driver::Streaming`] it is the summed per-shard
    /// `phase.trace_gen` span — CPU-seconds, not a separate phase.
    pub gen_wall_s: f64,
    /// Process peak RSS (VmHWM) after the run, in MiB, or `0.0` where no
    /// `/proc` exposes it. It bounds this run *plus* everything before
    /// it in the process.
    pub peak_rss_mb: f64,
}

/// Generates `row`'s workload and drives it once under `driver` at
/// `threads` workers.
pub fn run(row: &Row, driver: Driver, threads: usize) -> Outcome {
    let pop = row.population();
    let scenario = row
        .scenario
        .map(|spec| ScenarioPopulation::new(pop.clone(), spec()));
    let cfg = row.system_config();
    let generate = || match &scenario {
        Some(sp) => sp.generate_parallel(threads),
        None => pop.generate_parallel(threads),
    };
    let start = Instant::now();
    // When the input existed and the simulation began; streaming has no
    // such moment, its shards are generated as they are consumed.
    let mut ready = start;
    let (report, ingest) = match driver {
        Driver::Parallel => {
            let trace = generate();
            ready = Instant::now();
            (Simulator::run_trace(&cfg, &trace, threads), None)
        }
        Driver::Streaming => {
            let n_shards = adpf_core::default_shards(pop.num_users);
            let shard = |i| match &scenario {
                Some(sp) => sp.generate_shard(i, n_shards),
                None => pop.generate_shard(i, n_shards),
            };
            let report = Simulator::run_shards(&cfg, pop.num_users, n_shards, threads, shard);
            (report, None)
        }
        Driver::Serve => {
            let mut stream = Vec::new();
            adpf_serve::write_events(&generate(), cfg.ad_refresh, &mut stream)
                .expect("in-memory serialization cannot fail");
            let mut opts = adpf_serve::ServeOptions::new(cfg);
            opts.threads = threads;
            opts.error_sample = 0;
            ready = Instant::now();
            let out = adpf_serve::serve(&opts, stream.as_slice())
                .expect("a generated stream carries its header and reads from memory");
            (out.report, Some((out.requests, out.ingest_errors)))
        }
    };
    Outcome {
        wall_s: ready.elapsed().as_secs_f64(),
        gen_wall_s: match driver {
            Driver::Streaming => report.metrics.time_ns("phase.trace_gen") as f64 / 1e9,
            _ => (ready - start).as_secs_f64(),
        },
        peak_rss_mb: adpf_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
        report,
        ingest,
    }
}

/// Runs every row under each of its drivers at every thread count
/// (`threads`, else the row's own list), holds each outcome to the row's
/// gates and to what holds of every run, and hands `emit` one
/// `name driver threads=… hash=… ok` or `… FAILED(what expected …, got
/// …; …)` line per run. A driver the row must run under but does not list
/// gets a FAILED line at each thread count. Never stops at a failure;
/// returns how many runs failed.
///
/// What holds of every run: the books balance (every slot is an
/// impression or unfilled, every sold ad billed or expired, revenue plus
/// refunds is the sold value to 1e-9 of it); a served stream ingests
/// without a rejected line and with one request per slot; and every run
/// of a row, served ones included, repeats its first one's deterministic
/// metrics.
///
/// Under [`Gate::MetricsExport`] the export goes through `metrics_out`
/// when given and is validated as re-read from disk — the file is what
/// downstream tooling consumes.
pub fn check(
    rows: &[Row],
    threads: Option<&[usize]>,
    metrics_out: Option<&str>,
    mut emit: impl FnMut(&str),
) -> usize {
    let mut failed = 0;
    for row in rows {
        // The row's first run and its deterministic metrics.
        let mut first: Option<(String, Vec<MetricSnapshot>)> = None;
        for &driver in EVERY_DRIVER {
            let listed = row.drivers.contains(&driver);
            if !listed && row.at_scale() {
                continue;
            }
            for &t in threads.unwrap_or(row.threads) {
                let at = format!("{} {} threads={t}", row.name, driver.name());
                if !listed {
                    failed += 1;
                    emit(&format!(
                        "{at} FAILED(a run expected, the row omits its driver)"
                    ));
                    continue;
                }
                let o = run(row, driver, t);
                let (notes, mut failures) = judge(row, &o, metrics_out);
                let metrics = o.report.metrics.deterministic_snapshot();
                match &first {
                    None => first = Some((at.clone(), metrics)),
                    Some((first, want)) => failures.extend(
                        metrics_differ(want, &metrics)
                            .map(|m| format!("{m} expected as in {first}, got another")),
                    ),
                }
                let verdict = if failures.is_empty() {
                    "ok".to_string()
                } else {
                    failed += 1;
                    format!("FAILED({})", failures.join("; "))
                };
                let hash = o.report.stable_hash();
                emit(&format!("{at} hash={hash:016x}{notes} {verdict}"));
            }
        }
    }
    failed
}

/// Holds one run to its row's hash and gates, the books and, under
/// [`Driver::Serve`], the ingest contract. Returns the notes for its
/// check line and what failed.
fn judge(row: &Row, o: &Outcome, metrics_out: Option<&str>) -> (String, Vec<String>) {
    let r = &o.report;
    let (hash, want) = (r.stable_hash(), row.hash);
    let mut notes = String::new();
    let mut failures = Vec::new();
    if hash != want {
        failures.push(format!("hash expected {want:016x}, got {hash:016x}"));
    }
    for gate in row.gates {
        failures.extend(match *gate {
            Gate::MaxRssMb(max) => {
                let got = o.peak_rss_mb;
                notes += &format!(" rss_mb={got:.2}");
                (got > max).then(|| format!("rss_mb expected <= {max}, got {got:.2}"))
            }
            Gate::ScenarioCountersNonZero => {
                let (bytes, samples) = (r.metered_bytes(), r.display_latency_ms().count());
                (bytes == 0 || samples == 0).then(|| {
                    format!(
                        "scenario counters expected non-zero, got {bytes} metered \
                         bytes, {samples} display-latency samples"
                    )
                })
            }
            Gate::MetricsExport => {
                let export = to_json_lines(&r.metrics, row.name);
                let export = match metrics_out {
                    Some(path) => std::fs::write(path, &export)
                        .and_then(|()| std::fs::read_to_string(path))
                        .map_err(|e| format!("{path}: {e}")),
                    None => Ok(export),
                };
                match export.and_then(|text| validate_json_lines(&text)) {
                    Ok(n) if n > 0 => {
                        notes += &format!(" metric_lines={n}");
                        None
                    }
                    Ok(_) => Some("metrics export expected lines, got none".to_string()),
                    Err(e) => Some(format!("metrics export expected valid, got {e}")),
                }
            }
        });
    }
    // The books — slots are impressions or unfilled, sold ads billed or
    // expired — and serve's one request per slot with no rejected line.
    let l = &r.ledger;
    let mut counts = vec![
        ("slots", r.slots(), r.impressions() + r.unfilled()),
        ("sold", l.sold, l.billed + l.expired),
    ];
    if let Some((requests, ingest_errors)) = o.ingest {
        counts.push(("requests", requests, r.slots()));
        counts.push(("ingest_errors", ingest_errors, 0));
    }
    for (what, got, want) in counts {
        if got != want {
            failures.push(format!("{what} expected {want}, got {got}"));
        }
    }
    let drift = (l.revenue + l.refunded - l.sold_value).abs();
    if drift > 1e-9 * l.sold_value {
        failures.push(format!(
            "revenue + refunded expected the sold value {}, got {drift:e} off",
            l.sold_value
        ));
    }
    (notes, failures)
}

/// The name of the first metric `got` does not repeat from `want`.
fn metrics_differ(want: &[MetricSnapshot], got: &[MetricSnapshot]) -> Option<String> {
    match want.iter().zip(got).find(|(w, g)| w != g) {
        Some((w, _)) => Some(format!("metric {}", w.name)),
        None => (want.len() != got.len()).then(|| "the metric count".to_string()),
    }
}

/// Runs every row under each of its drivers at every thread count
/// (`threads`, else the row's own list) and appends one entry per run to
/// the JSON file at `path`, preserving previously recorded entries
/// verbatim and handing `emit` each new line. Returns the new-entry count.
pub fn record(
    rows: &[Row],
    threads: Option<&[usize]>,
    label: &str,
    path: &str,
    mut emit: impl FnMut(&str),
) -> io::Result<usize> {
    // Read first: an unreadable file should fail before minutes of runs.
    let mut entries = match std::fs::read_to_string(path) {
        Ok(contents) => parse_entry_lines(&contents),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let before = entries.len();
    for row in rows {
        for (i, &driver) in row.drivers.iter().enumerate() {
            // A row's first driver records under the bare row name, as
            // every entry did before a row listed several.
            let workload = match i {
                0 => row.name.to_string(),
                _ => format!("{}-{}", row.name, driver.name()),
            };
            for &t in threads.unwrap_or(row.threads) {
                let entry = entry_line(label, &workload, t, &run(row, driver, t));
                emit(&entry);
                entries.push(entry);
            }
        }
    }
    std::fs::write(path, render_file(&entries))?;
    Ok(entries.len() - before)
}

/// Serializes one run as a JSON object on a single line, with the keys
/// and key order `BENCH_baseline.json` has always used. `events` is
/// slots plus syncs (taken, skipped and dropped), the unit of simulator
/// work; `ads_placed` is advance sales registered with the ledger; both
/// rates divide by `wall_s` only. `cpus` stamps the recording host,
/// because wall-clock columns compare only between similar hardware.
/// `obs_overhead_pct` is no longer measured and stays `0.00`, so the
/// key set matches every entry recorded before.
pub(crate) fn entry_line(label: &str, workload: &str, threads: usize, o: &Outcome) -> String {
    let (wall_s, gen_wall_s, rss) = (o.wall_s, o.gen_wall_s, o.peak_rss_mb);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let r = &o.report;
    let events = r.slots() + r.syncs() + r.syncs_skipped() + r.syncs_dropped();
    let ads = r.ledger.sold;
    let per_sec = |n: u64| n as f64 / wall_s.max(1e-9);
    let (events_rate, ads_rate) = (per_sec(events), per_sec(ads));
    let hash = r.stable_hash();
    format!(
        "{{\"label\":\"{label}\",\"workload\":\"{workload}\",\"threads\":{threads},\
         \"cpus\":{cpus},\
         \"wall_s\":{wall_s:.4},\"gen_wall_s\":{gen_wall_s:.4},\
         \"events\":{events},\"events_per_sec\":{events_rate:.0},\
         \"ads_placed\":{ads},\"ads_placed_per_sec\":{ads_rate:.0},\
         \"obs_overhead_pct\":0.00,\
         \"peak_rss_mb\":{rss:.1},\
         \"report_hash\":\"{hash:016x}\"}}"
    )
}

/// Extracts the entry lines of an existing `BENCH_baseline.json`.
///
/// The file is a JSON array with one object per line; this parser only
/// needs to split it back into those lines, so hand-rolled JSON stays
/// honest (we re-emit lines verbatim).
pub(crate) fn parse_entry_lines(contents: &str) -> Vec<String> {
    contents
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// Renders entry lines back into the JSON-array file format.
pub(crate) fn render_file(entries: &[String]) -> String {
    format!("[\n  {}\n]\n", entries.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> Row {
        select(&[name.to_string()]).expect("known row")[0]
    }

    fn checked(rows: &[Row], metrics_out: Option<&str>) -> (usize, Vec<String>) {
        let mut lines = Vec::new();
        let failed = check(rows, None, metrics_out, |l| lines.push(l.to_string()));
        (failed, lines)
    }

    #[test]
    fn seeded_mutations_each_fail_without_stopping_the_run() {
        let churn = row("smoke-churn");
        let flipped = Row {
            hash: churn.hash ^ 1,
            threads: &[1],
            ..churn
        };
        // Scenario left off: the plain smoke report comes back, so the
        // pinned mixed hash and the counter gate both trip.
        let bare = Row {
            scenario: None,
            threads: &[8],
            ..row("smoke-mixed")
        };
        // No export can be written into a directory that does not exist,
        // and VmHWM is positive wherever it is readable.
        let unmet = Row {
            drivers: &[Driver::Streaming],
            threads: &[2],
            gates: &[Gate::MetricsExport, Gate::MaxRssMb(0.0)],
            ..SMOKE
        };
        let missing = Row {
            drivers: &[Driver::Parallel, Driver::Streaming],
            threads: &[2],
            ..row("smoke-dropout")
        };
        let nowhere = std::env::temp_dir().join("adpf-no-such-dir/m.jsonl");
        let (failed, lines) = checked(&[flipped, bare, unmet, missing], nowhere.to_str());
        assert_eq!(failed, 3 + 3 + 1 + 1, "every bad run counts: {lines:#?}");
        assert_eq!(lines.len(), 3 + 3 + 1 + 3, "{lines:#?}");
        let got = format!("{:016x}", churn.hash);
        for (line, driver) in lines.iter().zip(["parallel", "stream", "serve"]) {
            let want = format!(
                "smoke-churn {driver} threads=1 hash={got} FAILED(hash expected {:016x}, got {got})",
                churn.hash ^ 1
            );
            assert_eq!(*line, want);
        }
        let (mixed, smoke) = (row("smoke-mixed").hash, SMOKE_GOLDEN);
        for (line, driver) in lines[3..6].iter().zip(["parallel", "stream", "serve"]) {
            let want = format!(
                "smoke-mixed {driver} threads=8 hash={smoke:016x} FAILED(hash expected \
                 {mixed:016x}, got {smoke:016x}; scenario counters expected non-zero, got 0 \
                 metered bytes"
            );
            assert!(line.starts_with(&want), "{line}");
        }
        let mut wants = vec![
            "smoke stream threads=2 ",
            "FAILED(metrics export expected valid, got ",
        ];
        if adpf_obs::peak_rss_kb().is_some() {
            wants.push("; rss_mb expected <= 0, got ");
        }
        for want in wants {
            assert!(lines[6].contains(want), "{}", lines[6]);
        }
        assert!(lines[7..9].iter().all(|l| l.ends_with(" ok")), "{lines:#?}");
        assert_eq!(
            lines[9],
            "smoke-dropout serve threads=2 FAILED(a run expected, the row omits its driver)"
        );
    }

    #[test]
    fn an_unknown_row_name_is_an_error_listing_the_valid_ones() {
        let err = select(&["smoke".to_string(), "smok".to_string()]).unwrap_err();
        assert!(err.contains("unknown row `smok`"), "{err}");
        for r in ROWS {
            assert!(err.contains(r.name), "{err} omits {}", r.name);
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        for (i, r) in ROWS.iter().enumerate() {
            let dup = ROWS[..i].iter().any(|q| q.name == r.name);
            assert!(!dup, "duplicate row name {}", r.name);
            // No two rows alias one report, so each pins a regime of its
            // own: a layer that never engaged would collide with the row
            // it varies.
            let alias = ROWS[..i].iter().find(|q| q.hash == r.hash);
            assert!(alias.is_none(), "{} and {alias:?} pin one hash", r.name);
            let wanted = if r.at_scale() {
                &[Driver::Streaming][..]
            } else {
                EVERY_DRIVER
            };
            assert_eq!(r.drivers, wanted, "{}", r.name);
        }
        let defaults = select(&[]).unwrap();
        assert!(defaults.iter().all(|r| !r.slow));
        let gates: Vec<Gate> = defaults.iter().flat_map(|r| r.gates).copied().collect();
        assert!(gates.iter().any(|g| matches!(g, Gate::MaxRssMb(_))));
        assert!(gates.contains(&Gate::MetricsExport));
        assert!(gates.contains(&Gate::ScenarioCountersNonZero));
        // VmHWM never falls, so an RSS ceiling means something only on
        // rows that run before any ungated one — in the table, and in a
        // selection however its names were ordered.
        let rss_gated = |r: &Row| r.gates.iter().any(|g| matches!(g, Gate::MaxRssMb(_)));
        let first_ungated = ROWS.iter().position(|r| !rss_gated(r)).unwrap();
        assert!(first_ungated > 0 && !ROWS[first_ungated..].iter().any(rss_gated));
        let picked = select(&["e14".to_string(), "memcheck".to_string()]).unwrap();
        assert_eq!((picked[0].name, picked[1].name), ("memcheck", "e14"));
    }

    #[test]
    fn ci_replays_the_serve_binary_against_the_same_golden() {
        let ci = include_str!("../../../ci.sh");
        assert!(ci.contains(&format!("report-hash: {SMOKE_GOLDEN:016x}")));
    }

    #[test]
    fn every_driver_gives_the_same_report_and_times_both_phases() {
        let want = run(&SMOKE, Driver::Parallel, 1).report;
        assert!(want.slots() > 0 && want.ledger.sold > 0);
        for &driver in EVERY_DRIVER {
            let o = run(&SMOKE, driver, 2);
            assert_eq!(o.report, want, "{driver:?} diverged");
            assert!(o.wall_s > 0.0 && o.gen_wall_s > 0.0, "{driver:?} untimed");
            if adpf_obs::peak_rss_kb().is_some() {
                assert!(o.peak_rss_mb > 0.0);
            }
        }
    }

    #[test]
    fn report_hash_is_sensitive_to_every_field_class() {
        let base = run(&SMOKE, Driver::Parallel, 1).report;
        let h0 = base.stable_hash();
        let counters = base.clone();
        counters.metrics.add("sim.cache_hits", 1);
        assert_ne!(counters.stable_hash(), h0);
        let mut floats = base.clone();
        // One ULP, not a fixed epsilon: the hash covers exact bit
        // patterns, and a fixed offset can round away at large values.
        floats.ledger.revenue = floats.ledger.revenue.next_up();
        assert_ne!(floats.stable_hash(), h0);
        let mut series = base.clone();
        if let Some(e) = series.per_user_energy_j.first_mut() {
            *e = e.next_up();
        }
        assert_ne!(series.stable_hash(), h0);
    }

    #[test]
    fn json_round_trip_preserves_existing_entries() {
        let entries = [
            entry_line("pre", "w", 1, &run(&SMOKE, Driver::Parallel, 1)),
            entry_line("post", "w", 2, &run(&SMOKE, Driver::Parallel, 2)),
        ];
        let file = render_file(&entries[..1]);
        assert_eq!(parse_entry_lines(&file), entries[..1]);
        // Appending keeps old lines byte-identical.
        let file2 = render_file(&entries);
        assert_eq!(parse_entry_lines(&file2), entries);
        assert!(file2.starts_with(file.trim_end_matches("\n]\n")));
        assert!(file2.contains(&format!("\"report_hash\":\"{SMOKE_GOLDEN:016x}\"")));
    }

    #[test]
    fn entry_line_is_valid_single_object() {
        let line = entry_line("x", "smoke-stream", 2, &run(&SMOKE, Driver::Streaming, 2));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        // Same keys, same order, as the last batch row recorded before
        // the table existed. Every field starts `{"key":` or `,"key":`.
        let keys = |l: &str| -> Vec<String> {
            let fields = l.split(['{', ',']).filter_map(|f| f.strip_prefix('"'));
            fields
                .filter_map(|f| Some(f.split_once("\":")?.0.to_string()))
                .collect()
        };
        let committed = include_str!("../../../BENCH_baseline.json");
        let old = committed.lines().find(|l| l.contains("\"sale-path\""));
        assert_eq!(keys(&line), keys(old.expect("a sale-path row").trim()));
    }
}
