//! Observability must be a pure spectator: every run keeps a registry
//! (`--metrics` in the CLI prints it, every report carries it as
//! `SimReport::metrics`), it cannot change any simulated outcome at any
//! thread count, and it must be deterministic in everything except
//! wall-clock timers and host facts (`baseline::check` holds every run
//! of a row to its first one's deterministic metrics).

#[macro_use]
mod common;

use adprefetch::core::{default_shards, Simulator, SystemConfig};
use adprefetch::netem::NetemConfig;
use adprefetch::obs::{to_json_lines, validate_json_lines};
use adprefetch::traces::{PopulationConfig, Trace};

fn small_trace() -> Trace {
    PopulationConfig::small_test(777).generate()
}

#[test]
fn metrics_on_and_off_agree_at_every_thread_count() {
    // There is no metrics-off path left: every report carries its
    // registry. What must agree, materialized or streamed at any thread
    // count, is the report and the deterministic part of its metrics;
    // the wall-clock timers beside them differ run to run and never
    // reach `==`.
    let pop = PopulationConfig::small_test(777);
    let trace = pop.generate();
    let mut cfg = SystemConfig::prefetch_default(5);
    cfg.netem = NetemConfig::flaky_cellular();
    let (users, n) = (pop.num_users, default_shards(pop.num_users));
    let want = Simulator::run_trace(&cfg, &trace, 1);
    let snapshot = want.metrics.deterministic_snapshot();
    for threads in [1usize, 2, 8] {
        let reports = [
            Simulator::run_trace(&cfg, &trace, threads),
            Simulator::run_shards(&cfg, users, n, threads, |i| pop.generate_shard(i, n)),
        ];
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r, &want, "entry point {i} diverged at {threads} threads");
            assert_eq!(
                r.metrics.deterministic_snapshot(),
                snapshot,
                "entry point {i}"
            );
            assert!(r.metrics.time_ns("phase.event_loop") > 0);
        }
    }
}

pinned_by! {
    deterministic_registry_is_identical_across_thread_counts: "smoke-flaky";
}

#[test]
fn registry_spans_the_whole_stack() {
    // One merged registry carries desim-level event counts, netem link
    // stats, overbooking churn, and energy residency histograms.
    let trace = small_trace();
    let mut cfg = SystemConfig::prefetch_default(5);
    cfg.netem = NetemConfig::flaky_cellular();
    let r = Simulator::run_trace(&cfg, &trace, 2);
    let reg = &r.metrics;
    assert_eq!(reg.counter_value("sim.event.slot"), r.slots());
    assert!(reg.counter_value("netem.attempts") > 0);
    assert_eq!(
        reg.counter_value("overbooking.replicas_registered")
            + reg.counter_value("overbooking.rescues"),
        r.replicas_assigned()
    );
    assert!(reg.histogram_snapshot("energy.user.active_ms").is_some());
    assert!(reg.time_ns("phase.event_loop") > 0);
}

#[test]
fn exported_json_lines_round_trip_the_validator() {
    let trace = small_trace();
    let cfg = SystemConfig::prefetch_default(5);
    let reg = Simulator::run_trace(&cfg, &trace, 2).metrics;
    let lines = to_json_lines(&reg, "itest");
    let n = validate_json_lines(&lines).expect("export must satisfy its own schema");
    assert_eq!(n, reg.len(), "one JSON line per metric");
}
