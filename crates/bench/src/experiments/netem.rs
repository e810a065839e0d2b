//! E16: degraded-network sweep — outage intensity × retry policy.
//!
//! The paper evaluates prefetching under an ideal always-on network and
//! reports negligible SLA violations. This experiment asks what survives
//! contact with realistic mobile connectivity: per-client flaky links
//! (`adpf-netem`'s state machine) and correlated regional blackouts, under
//! client retry policies of increasing persistence. Every cell reports the
//! cost against the *ideal-network* prefetch baseline, so the deltas are
//! attributable to the network alone. Runs go through the sharded
//! simulator, which also exercises the netem determinism contract.

use adpf_core::{Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_netem::{NetemConfig, RetryPolicy};

use crate::scale::Scale;
use crate::table::{pct, Table};

/// The outage-intensity axis: plain flaky links, then a 6-hour blackout
/// two days in covering half or all of the population.
fn scenarios() -> Vec<(&'static str, NetemConfig)> {
    let blackout =
        |f: f64| NetemConfig::flaky_cellular().with_outage(48, SimDuration::from_hours(6), f);
    vec![
        ("flaky", NetemConfig::flaky_cellular()),
        ("blackout 50%", blackout(0.5)),
        ("blackout 100%", blackout(1.0)),
    ]
}

/// The retry-policy axis.
fn policies() -> Vec<(&'static str, RetryPolicy)> {
    vec![
        ("none", RetryPolicy::none()),
        ("capped-3", RetryPolicy::capped_exponential()),
        ("aggressive-6", RetryPolicy::aggressive()),
    ]
}

/// E16: SLA violations, revenue loss, and ad energy under degraded
/// networks, relative to the ideal-network prefetch baseline.
pub(crate) fn e16_degraded_network(scale: Scale, threads: usize) -> Table {
    let trace = scale.system_trace(42);
    let ideal_cfg = SystemConfig::prefetch_default(1);
    let ideal = Simulator::run_trace(&ideal_cfg, &trace, threads);

    let mut table = Table::new(
        "E16",
        "degraded networks: outage intensity x retry policy",
        "deltas vs the ideal-network prefetch baseline (paper's operating point)",
        &[
            "scenario",
            "retries",
            "sync fail",
            "abandoned",
            "rescued",
            "cache hit",
            "SLA viol",
            "loss",
            "energy d",
        ],
    );
    table.push(vec![
        "ideal".into(),
        "-".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        pct(ideal.cache_hit_rate()),
        pct(ideal.sla_violation_rate()),
        pct(0.0),
        pct(0.0),
    ]);
    for (scenario, netem) in scenarios() {
        for (policy, retry) in policies() {
            let mut cfg = ideal_cfg.clone();
            cfg.netem = netem.clone().with_retry(retry);
            let r = Simulator::run_trace(&cfg, &trace, threads);
            let energy_delta = if ideal.energy.total_j() > 0.0 {
                r.energy.total_j() / ideal.energy.total_j() - 1.0
            } else {
                0.0
            };
            table.push(vec![
                scenario.to_string(),
                policy.to_string(),
                r.metrics.counter_value("netem.sync_failures").to_string(),
                r.metrics.counter_value("netem.syncs_abandoned").to_string(),
                r.metrics.counter_value("overbooking.rescues").to_string(),
                pct(r.cache_hit_rate()),
                pct(r.sla_violation_rate()),
                pct(r.revenue_loss_vs(&ideal)),
                pct(energy_delta),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: &Table, scenario: &str, policy: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == scenario && r[1] == policy)
            .unwrap_or_else(|| panic!("row {scenario}/{policy}"))[col]
            .trim_end_matches('%')
            .parse()
            .unwrap()
    }

    #[test]
    fn e16_shape_and_directional_effects() {
        let t = e16_degraded_network(Scale::Micro, 2);
        assert_eq!(t.rows.len(), 1 + 3 * 3, "ideal + 3 scenarios x 3 policies");

        // Degraded links must actually fail syncs.
        assert!(cell(&t, "flaky", "capped-3", 2) > 0.0);
        // A no-retry client abandons every failed sync; persistent
        // clients abandon no more than it under identical weather.
        assert!(
            cell(&t, "flaky", "none", 3) >= cell(&t, "flaky", "aggressive-6", 3),
            "persistence cannot increase abandonment"
        );
        // The full blackout strands more syncs than plain flaky links
        // under the same policy.
        assert!(cell(&t, "blackout 100%", "capped-3", 2) > cell(&t, "flaky", "capped-3", 2));
        // The ideal network is the SLA floor for a no-retry client under
        // a full blackout (micro-scale noise can invert subtler cells).
        let ideal_sla: f64 = t.rows[0][6].trim_end_matches('%').parse().unwrap();
        assert!(cell(&t, "blackout 100%", "none", 6) >= ideal_sla);
    }

    #[test]
    fn e16_is_deterministic_across_thread_counts() {
        let a = e16_degraded_network(Scale::Micro, 1);
        let b = e16_degraded_network(Scale::Micro, 4);
        assert_eq!(a.rows, b.rows);
    }
}
