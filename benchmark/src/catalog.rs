//! What the benchmark measures: the metric names, units, directions and
//! bounds (the workloads are in [`crate::workloads`]). `BENCHMARK.json`
//! at the repo root states the same sets; `tests/contract.rs` holds the
//! two equal in both directions.

/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The seed every default invocation uses. Seed 7 is held out: nothing
/// in this directory was tuned against it, so a later claim can be
/// re-checked on it.
pub const DEFAULT_SEED: u64 = 42;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The bound of the simulated figures: "exact". They are read on a fixed
/// population (`workloads::SIM_SEED`), where they repeat to the last bit;
/// the bound leaves room only for a reordered floating-point sum.
pub const EXACT: f64 = 1e-9;

/// What a user of the system would see. Every workload reports every
/// one of these (see `README.md` for what each means on each workload,
/// and for why the three host figures are bounded wider than a tenth).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("slots_per_s", "slots/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("decided_in_limit_frac", "frac", Higher, 0.01),
    e2e("sim_energy_j_per_slot", "J", Lower, EXACT),
    e2e("sim_sla_met_frac", "frac", Higher, EXACT),
    e2e("sim_revenue_per_kslot", "USD", Higher, EXACT),
];

/// Single-layer metrics from the traced run, grouped by the crate or
/// module they describe. A workload that bypasses a layer reports 0.
pub const PER_LAYER: &[Metric] = &[
    // traces
    layer("traces.gen_s", "s", Lower),
    layer("traces.gen_ns_per_slot", "ns", Lower),
    layer("traces.slots", "count", Higher),
    // scenario
    layer("scenario.gen_extra_s", "s", Lower),
    layer("scenario.cap_blocked_syncs", "count", Lower),
    layer("scenario.metered_mb", "MiB", Lower),
    // desim
    layer("desim.events", "count", Lower),
    layer("desim.events_per_slot", "count", Lower),
    layer("desim.queue_push_pop_ns", "ns", Lower),
    layer("desim.queue_drain_ns", "ns", Lower),
    // prediction
    layer("prediction.observe_ns", "ns", Lower),
    layer("prediction.predict_ns", "ns", Lower),
    layer("prediction.est_share", "frac", Lower),
    // auction
    layer("auction.auctions", "count", Lower),
    layer("auction.fill_frac", "frac", Higher),
    layer("pacing.ticks", "count", Lower),
    layer("pacing.throttle_skips", "count", Lower),
    layer("auction.run_auction_ns", "ns", Lower),
    layer("auction.est_share", "frac", Lower),
    // overbooking
    layer("overbooking.pool_builds", "count", Lower),
    layer("overbooking.cands_scored_per_build", "count", Lower),
    layer("overbooking.rescored_frac", "frac", Lower),
    layer("overbooking.replicas_per_ad", "count", Lower),
    layer("overbooking.duplicate_frac", "frac", Lower),
    layer("overbooking.peak_tracked", "count", Lower),
    layer("overbooking.plan_ns", "ns", Lower),
    layer("overbooking.avail_tail_ns", "ns", Lower),
    layer("overbooking.avail_cache_hit_frac", "frac", Higher),
    layer("overbooking.tracker_op_ns", "ns", Lower),
    // energy
    layer("energy.transfers", "count", Lower),
    layer("energy.transfer_ns", "ns", Lower),
    layer("energy.est_share", "frac", Lower),
    // netem
    layer("netem.attempts", "count", Lower),
    layer("netem.attempt_fail_frac", "frac", Lower),
    layer("netem.retries_scheduled", "count", Lower),
    layer("netem.attempt_ns", "ns", Lower),
    // core
    layer("core.engine.setup_s", "s", Lower),
    layer("core.engine.on_slot_s", "s", Lower),
    layer("core.engine.on_slot_ns", "ns", Lower),
    layer("core.engine.drain_s", "s", Lower),
    layer("core.engine.drain_ns_per_event", "ns", Lower),
    layer("core.engine.finalize_s", "s", Lower),
    layer("core.report.merge_s", "s", Lower),
    layer("core.sim.split_s", "s", Lower),
    layer("core.sim.sched_other_s", "s", Lower),
    layer("core.shard_skew", "ratio", Lower),
    layer("core.syncs", "count", Lower),
    layer("core.syncs_skipped_frac", "frac", Higher),
    layer("core.cache_hit_frac", "frac", Higher),
    // serve
    layer("serve.protocol.feed_ns", "ns", Lower),
    layer("serve.protocol.write_ns", "ns", Lower),
    layer("serve.server.serve_s", "s", Lower),
    layer("serve.engine_s", "s", Lower),
    layer("serve.chan_other_s", "s", Lower),
    layer("serve.decision_p50_us", "us", Lower),
    layer("serve.decision_p99_us", "us", Lower),
    layer("serve.decision_max_us", "us", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.ingest_errors", "count", Lower),
    layer("serve.backlog_peak_est", "count", Lower),
    // gen: the benchmark's own open-loop generator
    layer("gen.offered_per_s", "1/s", Higher),
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.late_max_us", "us", Lower),
    // obs / proc
    layer("obs.observe_ns", "ns", Lower),
    layer("obs.merge_s", "s", Lower),
    layer("phase.event_loop_s", "s", Lower),
    layer("phase.shard_setup_s", "s", Lower),
    layer("phase.merge_s", "s", Lower),
    layer("phase.trace_gen_s", "s", Lower),
    layer("proc.cpu_s_per_mslot", "s", Lower),
    layer("proc.cpu_util", "ratio", Higher),
    layer("proc.slots_per_wall_s", "slots/s", Higher),
    layer("proc.host_slowdown", "ratio", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
