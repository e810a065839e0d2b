//! Observability must be a pure spectator: every run keeps a registry
//! (`--metrics` in the CLI prints it, `run_trace` / `run_shards` in the
//! library return it), it cannot change any simulated outcome at any
//! thread count, and it must be deterministic in everything except
//! wall-clock timers and host facts (`baseline::check` holds every batch
//! run of a row to its first one's deterministic metrics).

#[macro_use]
mod common;

use adprefetch::core::{default_shards, SimReport, Simulator, SystemConfig};
use adprefetch::netem::NetemConfig;
use adprefetch::obs::{to_json_lines, validate_json_lines, MetricRegistry};
use adprefetch::traces::{PopulationConfig, Trace};

fn small_trace() -> Trace {
    PopulationConfig::small_test(777).generate()
}

fn observed(cfg: &SystemConfig, trace: &Trace, threads: usize) -> (SimReport, MetricRegistry) {
    Simulator::run_trace(cfg, trace, threads)
}

#[test]
fn metrics_on_and_off_agree_at_every_thread_count() {
    // There is no metrics-off path left; what must still agree are the
    // four names the benchmark binds and the one path they forward to,
    // until the benchmark rebinds and the shims are deleted.
    let pop = PopulationConfig::small_test(777);
    let trace = pop.generate();
    let mut cfg = SystemConfig::prefetch_default(5);
    cfg.netem = NetemConfig::flaky_cellular();
    let (users, n) = (pop.num_users, default_shards(pop.num_users));
    let make = |i| pop.generate_shard(i, n);
    for threads in [1usize, 2, 8] {
        let (want, reg) = observed(&cfg, &trace, threads);
        let snapshot = reg.deterministic_snapshot();
        let (parallel, parallel_reg) = Simulator::run_parallel_observed(&cfg, &trace, threads);
        let (streamed, streamed_reg) =
            Simulator::run_streaming_observed(&cfg, users, n, threads, make);
        let reports = [
            Simulator::run_parallel(&cfg, &trace, threads),
            parallel,
            Simulator::run_shards(&cfg, users, n, threads, make).0,
            Simulator::run_streaming(&cfg, users, n, threads, make),
            streamed,
        ];
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r, &want, "entry point {i} diverged at {threads} threads");
        }
        assert_eq!(parallel_reg.deterministic_snapshot(), snapshot);
        assert_eq!(streamed_reg.deterministic_snapshot(), snapshot);
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
    let (r, reg) = observed(&cfg, &trace, 2);
    assert_eq!(reg.counter_value("sim.event.slot"), r.slots);
    assert!(reg.counter_value("netem.attempts") > 0);
    assert_eq!(
        reg.counter_value("overbooking.replicas_registered"),
        r.replicas_assigned
    );
    assert!(reg.histogram_snapshot("energy.user.active_ms").is_some());
    assert!(reg.time_ns("phase.event_loop") > 0);
}

#[test]
fn exported_json_lines_round_trip_the_validator() {
    let trace = small_trace();
    let cfg = SystemConfig::prefetch_default(5);
    let (_, reg) = observed(&cfg, &trace, 2);
    let lines = to_json_lines(&reg, "itest");
    let n = validate_json_lines(&lines).expect("export must satisfy its own schema");
    assert_eq!(n, reg.len(), "one JSON line per metric");
}
