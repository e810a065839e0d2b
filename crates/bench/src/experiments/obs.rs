//! E18: observability breakdown — where a smoke run spends its time and
//! what the metric registry sees at every layer.
//!
//! Unlike E1–E17, which reproduce figures from the paper, E18 documents
//! the harness itself: the pipeline-phase wall-clock split (trace
//! generation, per-shard setup, event loops, merge) and the
//! simulated-event counters the observability layer collects across
//! desim, netem, overbooking, and energy. The wall-clock column is
//! host-dependent by nature; everything in the `count` column is
//! deterministic and thread-count-independent.

use std::time::Instant;

use adpf_core::{Simulator, SystemConfig};
use adpf_netem::NetemConfig;

use crate::scale::Scale;
use crate::table::{f, Table};

/// E18: phase timings and cross-layer counters from one observed run.
pub(crate) fn e18_observability_breakdown(scale: Scale, threads: usize) -> Table {
    let t_gen = Instant::now();
    let trace = scale.system_trace(42);
    let gen_ms = t_gen.elapsed().as_secs_f64() * 1e3;

    let mut cfg = SystemConfig::prefetch_default(1);
    cfg.netem = NetemConfig::flaky_cellular();
    let report = Simulator::run_trace(&cfg, &trace, threads);
    let reg = &report.metrics;
    reg.add_time_ns("phase.trace_gen", (gen_ms * 1e6) as u64);

    let mut table = Table::new(
        "E18",
        "observability breakdown: phase timings and layer counters",
        "phase.* columns are wall-clock (host-dependent); counts are deterministic",
        &["metric", "layer", "wall ms", "count"],
    );
    let ms = |ns: u64| f(ns as f64 / 1e6, 2);
    for phase in [
        "phase.trace_gen",
        "phase.shard_setup",
        "phase.event_loop",
        "phase.merge",
    ] {
        table.push(vec![
            phase.into(),
            "pipeline".into(),
            ms(reg.time_ns(phase)),
            "-".into(),
        ]);
    }
    let counters = [
        ("sim.event.slot", "desim"),
        ("sim.event.sync", "desim"),
        ("sim.event.retry", "desim"),
        ("sim.pool.candidates_scored", "core"),
        ("netem.attempts", "netem"),
        ("netem.backoffs", "netem"),
        ("overbooking.rescues", "overbooking"),
        ("overbooking.first_displays", "overbooking"),
    ];
    for (name, layer) in counters {
        table.push(vec![
            name.into(),
            layer.into(),
            "-".into(),
            reg.counter_value(name).to_string(),
        ]);
    }
    // One histogram summarized by its mean: per-user radio-active time.
    if let Some(h) = reg.histogram_snapshot("energy.user.active_ms") {
        table.push(vec![
            "energy.user.active_ms (mean)".into(),
            "energy".into(),
            "-".into(),
            f(h.mean(), 0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_counters_are_live_and_deterministic() {
        let a = e18_observability_breakdown(Scale::Micro, 1);
        let b = e18_observability_breakdown(Scale::Micro, 4);
        // Wall-clock columns differ; the count column must not.
        let counts = |t: &Table| {
            t.rows
                .iter()
                .map(|r| (r[0].clone(), r[3].clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b));
        let count_of = |t: &Table, name: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))[3]
                .parse()
                .unwrap()
        };
        assert!(count_of(&a, "sim.event.slot") > 0);
        assert!(count_of(&a, "netem.attempts") > 0);
    }
}
