//! E18: observability breakdown — what the metric registry sees at every
//! layer of one flaky-network run.
//!
//! E1–E14 reproduce figures from the paper, and E15, E16, E19, E21 and
//! E22 extend them; E18 documents the harness itself: the simulated-event
//! counters the observability layer collects across desim, netem,
//! overbooking, and energy. Every count is deterministic and
//! thread-count-independent; timing is judged by `benchmark/`.

use adpf_core::{Simulator, SystemConfig};
use adpf_netem::NetemConfig;

use crate::scale::Scale;
use crate::table::{f, Note, Table};

/// E18: cross-layer counters from one observed run.
pub(crate) fn e18_observability_breakdown(scale: Scale, threads: usize) -> Table {
    let trace = scale.system_trace(42);
    let mut cfg = SystemConfig::prefetch_default(1);
    cfg.netem = NetemConfig::flaky_cellular();
    let report = Simulator::run_trace(&cfg, &trace, threads);
    let reg = &report.metrics;

    let mut table = Table::new(
        "E18",
        "observability breakdown: layer counters",
        Note::Harness("counts are deterministic and independent of the thread count"),
        &["metric", "layer", "count"],
    );
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
            reg.counter_value(name).to_string(),
        ]);
    }
    // One histogram summarized by its mean: per-user radio-active time.
    if let Some(h) = reg.histogram_snapshot("energy.user.active_ms") {
        table.push(vec![
            "energy.user.active_ms (mean)".into(),
            "energy".into(),
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
        assert_eq!(a, b, "the thread count moved a counter");
        let count_of = |name: &str| -> u64 {
            a.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))[2]
                .to_string()
                .parse()
                .unwrap()
        };
        assert!(count_of("sim.event.slot") > 0);
        assert!(count_of("netem.attempts") > 0);
    }
}
