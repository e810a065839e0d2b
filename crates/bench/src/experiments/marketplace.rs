//! E19: reactive marketplace — overbooking aggressiveness × pacing
//! regime.
//!
//! The paper's revenue-loss numbers assume a *static* exchange: campaigns
//! bid fixed distributions and never react to the supply shifts that
//! overbooked prefetching creates. This experiment re-runs the E8/E9
//! overbooking sweep with the marketplace layer enabled — campaigns
//! pacing spend against budget schedules, converging to target CPCs, and
//! a first-price variant — and reports each regime's revenue against the
//! static exchange at the *same* overbooking level, so the deltas are
//! attributable to marketplace dynamics alone.

use adpf_auction::{MarketplaceConfig, PricingRule};
use adpf_core::{Simulator, SystemConfig};

use crate::scale::Scale;
use crate::table::{pct, Table};

/// The overbooking-aggressiveness axis (replication SLA targets, the
/// E8/E9 sweep points that matter at quick scale).
const SLA_TARGETS: [f64; 3] = [0.80, 0.95, 0.99];

/// The pacing-regime axis: the static exchange baseline, then the paced
/// marketplace under both pricing rules.
fn regimes() -> Vec<(&'static str, MarketplaceConfig)> {
    let mut paced_first = MarketplaceConfig::paced();
    paced_first.pricing = PricingRule::FirstPrice;
    vec![
        ("static", MarketplaceConfig::disabled()),
        ("paced", MarketplaceConfig::paced()),
        ("paced-first", paced_first),
    ]
}

/// E19: revenue under reactive campaigns vs the static exchange, across
/// overbooking levels.
pub(crate) fn e19_reactive_marketplace(scale: Scale, threads: usize) -> Table {
    let trace = scale.system_trace(42);
    let mut table = Table::new(
        "E19",
        "reactive marketplace: overbooking aggressiveness x pacing regime",
        "revenue loss vs the static exchange at the same SLA target",
        &[
            "sla target",
            "regime",
            "revenue",
            "loss vs static",
            "SLA viol",
            "refunded",
        ],
    );
    for sla in SLA_TARGETS {
        let mut static_cfg = SystemConfig::prefetch_default(1);
        static_cfg.sla_target = sla;
        let baseline = Simulator::run_trace(&static_cfg, &trace, threads);
        for (regime, mc) in regimes() {
            let r = if mc.enabled {
                let mut cfg = static_cfg.clone();
                cfg.marketplace = mc;
                Simulator::run_trace(&cfg, &trace, threads)
            } else {
                baseline.clone()
            };
            table.push(vec![
                format!("{sla:.2}"),
                regime.to_string(),
                format!("{:.4}", r.revenue()),
                pct(r.revenue_loss_vs(&baseline)),
                pct(r.sla_violation_rate()),
                format!("{:.4}", r.ledger.refunded),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: &Table, sla: &str, regime: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == sla && r[1] == regime)
            .unwrap_or_else(|| panic!("row {sla}/{regime}"))[col]
            .trim_end_matches('%')
            .parse()
            .unwrap()
    }

    #[test]
    fn e19_shape_and_static_baseline() {
        let t = e19_reactive_marketplace(Scale::Micro, 2);
        assert_eq!(t.rows.len(), 3 * 3, "3 SLA targets x 3 regimes");
        for sla in ["0.80", "0.95", "0.99"] {
            // The static regime is its own baseline: zero loss by
            // definition, positive revenue by construction.
            assert_eq!(cell(&t, sla, "static", 3), 0.0);
            assert!(cell(&t, sla, "static", 2) > 0.0);
        }
    }

    #[test]
    fn e19_pacing_actually_moves_revenue() {
        let t = e19_reactive_marketplace(Scale::Micro, 2);
        // Reactive campaigns must change auction outcomes somewhere in
        // the sweep — a paced run bit-identical to the static exchange
        // would mean the marketplace layer never engaged.
        let moved = ["0.80", "0.95", "0.99"].iter().any(|sla| {
            cell(&t, sla, "paced", 2) != cell(&t, sla, "static", 2)
                || cell(&t, sla, "paced-first", 2) != cell(&t, sla, "static", 2)
        });
        assert!(moved, "paced regimes left every revenue cell unchanged");
    }

    #[test]
    fn e19_is_deterministic_across_thread_counts() {
        let a = e19_reactive_marketplace(Scale::Micro, 1);
        let b = e19_reactive_marketplace(Scale::Micro, 4);
        assert_eq!(a.rows, b.rows);
    }
}
