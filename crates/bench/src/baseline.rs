//! Determinism gates and the recorded trajectory.
//!
//! One table, [`ROWS`], names every fixed-seed workload this repo pins:
//! its population, how it is driven, and what must hold of the result.
//! [`run`] is the only place a row is generated and driven; [`check`]
//! holds rows to their gates and [`record`] appends a row's run to
//! `BENCH_baseline.json`. Because the workloads are fixed-seed, the
//! report hash is exact and machine-independent: a change that alters
//! any simulated outcome — even one bit of one float — changes it.
//!
//! Timing claims (throughput, latency, memory under load) belong to
//! `benchmark/`. Nothing here judges a clock against a committed number.

use std::io;
use std::time::Instant;

use adpf_auction::MarketplaceConfig;
use adpf_core::scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_core::{SimReport, Simulator, SystemConfig};
use adpf_netem::NetemConfig;
use adpf_obs::{to_json_lines, validate_json_lines, MetricRegistry};
use adpf_traces::PopulationConfig;

/// The smoke workload's report hash. Every `smoke*` row without a
/// scenario, the root determinism tests and ci.sh's served replay
/// (`SERVE_GOLDEN`) are held to this one value; a deliberate behaviour
/// change updates it here and in ci.sh, nowhere else.
pub const SMOKE_GOLDEN: u64 = 0xba08_fcf9_274d_6de0;

/// The smoke population under [`ScenarioSpec::mixed`].
const MIXED_GOLDEN: u64 = 0xddb8_fd9f_23e2_7430;

/// The smoke population over flaky links in a paced marketplace.
const PACED_GOLDEN: u64 = 0x1466_5b69_73c3_9963;

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
    /// rejected line.
    Serve,
}

/// One condition a row's outcome must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The report's [`SimReport::stable_hash`].
    Hash(u64),
    /// Ceiling on process peak RSS (VmHWM) in MiB — the tripwire for a
    /// change that re-materializes the full trace before sharding. VmHWM
    /// is a lifetime high-water mark, so rows carrying this gate come
    /// first in [`ROWS`]. Always met where no `/proc` exposes the figure.
    MaxRssMb(f64),
    /// The scenario layer's user-cost counters (metered bytes,
    /// display-latency samples) were populated.
    ScenarioCountersNonZero,
    /// The merged registry's JSON-lines export is non-empty and passes
    /// the schema validator — re-read from disk when [`check`] is given
    /// a `metrics_out` path, since the file is what tooling consumes.
    MetricsExport,
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Name the row is picked by, and recorded under as `workload`.
    pub name: &'static str,
    /// The synthetic population.
    pub population: Population,
    /// Scenario layered over the population and installed on the config
    /// (class assignment keyed on the population seed on both halves).
    pub scenario: Option<fn() -> ScenarioSpec>,
    /// Runs over [`NetemConfig::flaky_cellular`] links in a
    /// [`MarketplaceConfig::paced`] marketplace: retries, pacing ticks
    /// and throttles do work.
    pub netem_paced: bool,
    /// Master seed for [`SystemConfig::prefetch_default`].
    pub config_seed: u64,
    /// How the row is driven.
    pub driver: Driver,
    /// Worker-thread counts the row runs at; counts above the shard
    /// count cover the more-threads-than-shards regime.
    pub threads: &'static [usize],
    /// What must hold at every thread count.
    pub gates: &'static [Gate],
    /// Minutes-long rows, run only when named.
    pub slow: bool,
}

/// The `smoke` row: seconds-scale, still exercising every simulator
/// subsystem. The other `smoke-*` rows are this one under another driver
/// or scenario.
pub const SMOKE: Row = Row {
    name: "smoke",
    population: Population::SmallTest(777),
    scenario: None,
    netem_paced: false,
    config_seed: 5,
    driver: Driver::Parallel,
    threads: &[1, 2, 4, 8],
    gates: &[Gate::Hash(SMOKE_GOLDEN), Gate::MetricsExport],
    slow: false,
};

/// The `scale-100k` row; the other `scale-*` rows vary it.
const SCALE_100K: Row = Row {
    name: "scale-100k",
    population: Population::Iphone(100_000, 2, 42),
    scenario: None,
    netem_paced: false,
    config_seed: 1,
    driver: Driver::Streaming,
    threads: &[1],
    gates: &[Gate::Hash(0xfbc5_8485_16c9_6f9a)],
    slow: true,
};

/// Every pinned workload; `baseline` with no row names runs the ones not
/// marked `slow`, in this order.
pub const ROWS: [Row; 11] = [
    // Big enough that materializing its trace first would blow the
    // ceiling several times over (~128 MiB for the trace alone; it
    // streams in ~58 MiB), small enough to stream in seconds. The thread
    // count is fixed because the ceiling assumes two resident shards.
    Row {
        name: "memcheck",
        population: Population::Iphone(100_000, 1, 42),
        scenario: None,
        netem_paced: false,
        config_seed: 1,
        driver: Driver::Streaming,
        threads: &[2],
        gates: &[Gate::MaxRssMb(96.0), Gate::Hash(0x5dba_ec35_e607_f63c)],
        slow: false,
    },
    SMOKE,
    Row {
        name: "smoke-stream",
        driver: Driver::Streaming,
        threads: &[1, 2, 8],
        ..SMOKE
    },
    Row {
        name: "smoke-serve",
        driver: Driver::Serve,
        threads: &[1, 2, 8],
        ..SMOKE
    },
    Row {
        name: "smoke-mixed",
        scenario: Some(ScenarioSpec::mixed),
        threads: &[1, 2, 8],
        gates: &[Gate::Hash(MIXED_GOLDEN), Gate::ScenarioCountersNonZero],
        ..SMOKE
    },
    Row {
        name: "smoke-mixed-stream",
        scenario: Some(ScenarioSpec::mixed),
        driver: Driver::Streaming,
        threads: &[2],
        gates: &[Gate::Hash(MIXED_GOLDEN), Gate::ScenarioCountersNonZero],
        ..SMOKE
    },
    Row {
        name: "smoke-paced",
        netem_paced: true,
        threads: &[1, 2],
        gates: &[Gate::Hash(PACED_GOLDEN)],
        ..SMOKE
    },
    Row {
        name: "e14",
        population: Population::Iphone(300, 7, 42),
        scenario: None,
        netem_paced: false,
        config_seed: 1,
        driver: Driver::Parallel,
        threads: &[1, 4],
        gates: &[Gate::Hash(0x875d_772f_cf03_8dbf)],
        slow: false,
    },
    SCALE_100K,
    Row {
        name: "scale-100k-mixed",
        scenario: Some(ScenarioSpec::mixed),
        threads: &[2],
        gates: &[Gate::Hash(0x1ebd_65e2_361a_92f7)],
        ..SCALE_100K
    },
    Row {
        name: "scale-1m",
        population: Population::Iphone(1_000_000, 1, 42),
        gates: &[Gate::Hash(0xa536_bad7_d08c_6736)],
        ..SCALE_100K
    },
];

impl Row {
    /// The row's population config — the single source both pipelines
    /// generate from (`generate_parallel` materialized, `generate_shard`
    /// streamed), which is what keeps them hash-comparable.
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
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::prefetch_default(self.config_seed);
        if let Some(spec) = self.scenario {
            spec().apply_to(&mut cfg, self.population().seed);
        }
        if self.netem_paced {
            cfg.netem = NetemConfig::flaky_cellular();
            cfg.marketplace = MarketplaceConfig::paced();
        }
        cfg
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
    /// The merged report.
    pub report: SimReport,
    /// The merged metric registry.
    pub registry: MetricRegistry,
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

/// Generates `row`'s workload and drives it once at `threads` workers.
pub fn run(row: &Row, threads: usize) -> Outcome {
    let pop = row.population();
    let scenario = row
        .scenario
        .map(|spec| ScenarioPopulation::new(pop.clone(), spec()));
    let cfg = row.config();
    let generate = || match &scenario {
        Some(sp) => sp.generate_parallel(threads),
        None => pop.generate_parallel(threads),
    };
    let start = Instant::now();
    // When the input existed and the simulation began; streaming has no
    // such moment, its shards are generated as they are consumed.
    let mut ready = start;
    let (report, registry) = match row.driver {
        Driver::Parallel => {
            let trace = generate();
            ready = Instant::now();
            Simulator::run_trace(&cfg, &trace, threads)
        }
        Driver::Streaming => {
            let n_shards = adpf_core::default_shards(pop.num_users);
            let shard = |i| match &scenario {
                Some(sp) => sp.generate_shard(i, n_shards),
                None => pop.generate_shard(i, n_shards),
            };
            Simulator::run_shards(&cfg, pop.num_users, n_shards, threads, shard)
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
            (out.report, out.registry)
        }
    };
    Outcome {
        wall_s: ready.elapsed().as_secs_f64(),
        gen_wall_s: match row.driver {
            Driver::Streaming => registry.time_ns("phase.trace_gen") as f64 / 1e9,
            _ => (ready - start).as_secs_f64(),
        },
        peak_rss_mb: adpf_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
        report,
        registry,
    }
}

/// Runs every row at every thread count (`threads`, else the row's own
/// list), holds each outcome to the row's gates and its driver's
/// contract, and hands `emit` one `name threads=… hash=… ok` or
/// `… FAILED(what expected …, got …; …)` line per run. Never stops at a
/// failure; returns how many runs failed.
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
        for &t in threads.unwrap_or(row.threads) {
            let o = run(row, t);
            let hash = o.report.stable_hash();
            let mut notes = String::new();
            let mut failures = Vec::new();
            for gate in row.gates {
                failures.extend(match *gate {
                    Gate::Hash(want) => (hash != want)
                        .then(|| format!("hash expected {want:016x}, got {hash:016x}")),
                    Gate::MaxRssMb(max) => {
                        let got = o.peak_rss_mb;
                        notes += &format!(" rss_mb={got:.2}");
                        (got > max).then(|| format!("rss_mb expected <= {max}, got {got:.2}"))
                    }
                    Gate::ScenarioCountersNonZero => {
                        let sc = &o.report.scenario;
                        let (bytes, samples) = (sc.metered_bytes(), sc.display_latency_ms.count());
                        (bytes == 0 || samples == 0).then(|| {
                            format!(
                                "scenario counters expected non-zero, got {bytes} metered \
                                 bytes, {samples} display-latency samples"
                            )
                        })
                    }
                    Gate::MetricsExport => {
                        let export = to_json_lines(&o.registry, row.name);
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
            if row.driver == Driver::Serve {
                let errors = o.registry.counter_value("serve.ingest_errors");
                failures.extend(
                    (errors != 0).then(|| format!("ingest_errors expected 0, got {errors}")),
                );
            }
            let verdict = if failures.is_empty() {
                "ok".to_string()
            } else {
                failed += 1;
                format!("FAILED({})", failures.join("; "))
            };
            let name = row.name;
            emit(&format!(
                "{name} threads={t} hash={hash:016x}{notes} {verdict}"
            ));
        }
    }
    failed
}

/// Runs every row at every thread count (`threads`, else the row's own
/// list) and appends one entry per run to the JSON file at `path`,
/// preserving previously recorded entries verbatim and handing `emit`
/// each new line. Returns the new-entry count.
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
        for &t in threads.unwrap_or(row.threads) {
            let entry = entry_line(label, row.name, t, &run(row, t));
            emit(&entry);
            entries.push(entry);
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
    let events = r.slots + r.syncs + r.syncs_skipped + r.syncs_dropped;
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
    fn the_smoke_rows_pass_at_every_listed_thread_count() {
        let mut rows = select(&[]).unwrap();
        rows.retain(|r| r.name.starts_with("smoke"));
        let (failed, lines) = checked(&rows, None);
        assert_eq!(failed, 0, "{lines:#?}");
        assert_eq!(lines.len(), 4 + 3 + 3 + 3 + 1 + 2);
        let golden = format!("hash={SMOKE_GOLDEN:016x}");
        assert!(
            lines[..10].iter().all(|l| l.contains(&golden)),
            "{lines:#?}"
        );
        assert!(lines.iter().all(|l| l.ends_with(" ok")), "{lines:#?}");
        let exported = format!("smoke threads=1 {golden} metric_lines=");
        assert!(lines[0].starts_with(&exported), "{}", lines[0]);
        assert!(lines[..10].iter().all(|l| l.contains(" metric_lines=")));
        assert!(lines[13].starts_with("smoke-mixed-stream threads=2 hash="));
        let paced = format!("hash={PACED_GOLDEN:016x}");
        assert!(lines[14..].iter().all(|l| l.contains(&paced)), "{lines:#?}");
    }

    #[test]
    fn seeded_mutations_each_fail_without_stopping_the_run() {
        let flipped = Row {
            threads: &[2],
            gates: &[Gate::Hash(SMOKE_GOLDEN ^ 1)],
            ..SMOKE
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
            threads: &[2],
            gates: &[Gate::MetricsExport, Gate::MaxRssMb(0.0)],
            ..row("smoke-stream")
        };
        let nowhere = std::env::temp_dir().join("adpf-no-such-dir/m.jsonl");
        let (failed, lines) = checked(&[flipped, bare, unmet], nowhere.to_str());
        assert_eq!(failed, 3, "every bad row is reported: {lines:#?}");
        let golden = format!("{SMOKE_GOLDEN:016x}");
        assert_eq!(
            lines[0],
            format!(
                "smoke threads=2 hash={golden} FAILED(hash expected {:016x}, got {golden})",
                SMOKE_GOLDEN ^ 1
            )
        );
        let want = format!(
            "smoke-mixed threads=8 hash={golden} FAILED(hash expected {MIXED_GOLDEN:016x}, got \
             {golden}; scenario counters expected non-zero, got 0 metered bytes"
        );
        assert!(lines[1].starts_with(&want), "{}", lines[1]);
        assert!(
            lines[2].starts_with("smoke-stream threads=2 "),
            "{}",
            lines[2]
        );
        let mut wants = vec!["FAILED(metrics export expected valid, got "];
        if adpf_obs::peak_rss_kb().is_some() {
            wants.push("; rss_mb expected <= 0, got ");
        }
        for want in wants {
            assert!(lines[2].contains(want), "{}", lines[2]);
        }
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
        }
        let defaults = select(&[]).unwrap();
        assert!(defaults.iter().all(|r| !r.slow));
        for d in [Driver::Parallel, Driver::Streaming, Driver::Serve] {
            assert!(defaults.iter().any(|r| r.driver == d), "{d:?} unused");
        }
        let gates: Vec<Gate> = defaults.iter().flat_map(|r| r.gates).copied().collect();
        assert!(gates.iter().any(|g| matches!(g, Gate::Hash(_))));
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
        let want = run(&SMOKE, 1).report;
        assert!(want.slots > 0 && want.ledger.sold > 0);
        for name in ["smoke", "smoke-stream", "smoke-serve"] {
            let o = run(&row(name), 2);
            assert_eq!(o.report, want, "{name} diverged");
            assert!(o.wall_s > 0.0 && o.gen_wall_s > 0.0, "{name} untimed");
            if adpf_obs::peak_rss_kb().is_some() {
                assert!(o.peak_rss_mb > 0.0);
            }
        }
    }

    #[test]
    fn report_hash_is_sensitive_to_every_field_class() {
        let base = run(&SMOKE, 1).report;
        let h0 = base.stable_hash();
        let mut counters = base.clone();
        counters.cache_hits += 1;
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
            entry_line("pre", "w", 1, &run(&SMOKE, 1)),
            entry_line("post", "w", 2, &run(&SMOKE, 2)),
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
        let line = entry_line("x", "smoke-stream", 2, &run(&row("smoke-stream"), 2));
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
