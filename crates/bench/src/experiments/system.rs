//! E7–E13: the end-to-end system sweeps.

use adpf_core::{PlannerKind, SimReport, Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_prediction::PredictorKind;
use adpf_traces::Trace;

use crate::scale::Scale;
use crate::table::{f, pct, Table};

fn realtime_baseline(trace: &Trace) -> SimReport {
    Simulator::new(SystemConfig::realtime(1), trace).run()
}

fn prefetch(trace: &Trace, tweak: impl FnOnce(&mut SystemConfig)) -> SimReport {
    let mut cfg = SystemConfig::prefetch_default(1);
    tweak(&mut cfg);
    Simulator::new(cfg, trace).run()
}

/// E7: the headline figure — ad energy overhead versus prefetch interval,
/// plus the CDF of per-user savings at the default configuration.
pub(crate) fn e7_energy_vs_interval(scale: Scale) -> Vec<Table> {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut table = Table::new(
        "E7",
        "ad energy vs. prefetch interval (vs. real-time baseline)",
        "prefetching cuts ad energy by >50%; savings are insensitive to the exact interval",
        &[
            "interval h",
            "energy J/impr",
            "savings",
            "cache hit",
            "syncs/user/day",
            "loss",
            "SLA viol",
        ],
    );
    table.push(vec![
        "realtime".into(),
        f(rt.energy_per_impression_j(), 2),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let mut default_run = None;
    for interval_h in [1u64, 2, 4, 8, 12] {
        let pf = prefetch(&trace, |c| {
            c.prefetch_interval = SimDuration::from_hours(interval_h);
            c.deadline = SimDuration::from_hours(interval_h.max(12));
        });
        table.push(vec![
            interval_h.to_string(),
            f(pf.energy_per_impression_j(), 2),
            pct(pf.energy_savings_vs(&rt)),
            pct(pf.cache_hit_rate()),
            f(pf.syncs_per_user_day(), 1),
            pct(pf.revenue_loss_vs(&rt)),
            pct(pf.sla_violation_rate()),
        ]);
        if interval_h == 2 {
            default_run = Some(pf);
        }
    }

    // Per-user distribution of the savings at the default interval: the
    // paper reports savings hold across users, not just on average.
    let mut cdf = Table::new(
        "E7b",
        "CDF of per-user ad energy savings (2 h interval)",
        "savings are broad-based: most users save, not just the heavy ones",
        &["percentile", "energy savings"],
    );
    let pf = default_run.expect("interval 2 is in the sweep");
    let savings = pf.per_user_savings_vs(&rt);
    let ecdf = adpf_stats::Ecdf::new(savings);
    for q in [0.05, 0.10, 0.25, 0.50, 0.75, 0.90] {
        cdf.push(vec![pct(q), pct(ecdf.quantile(q))]);
    }
    vec![table, cdf]
}

/// E8/E9: SLA violations and revenue loss versus overbooking
/// aggressiveness (the SLA target the planner aims for).
pub(crate) fn e8_e9_overbooking_sweep(scale: Scale) -> (Table, Table) {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut sla = Table::new(
        "E8",
        "SLA violations vs. overbooking aggressiveness (greedy planner)",
        "replication drives violations toward the target residual",
        &["SLA target", "replicas/ad", "SLA viol", "expired", "sold"],
    );
    let mut loss = Table::new(
        "E9",
        "revenue loss vs. overbooking aggressiveness",
        "duplicates (the cost of replication) stay negligible thanks to holdback + cancellation",
        &[
            "SLA target",
            "replicas/ad",
            "duplicates",
            "dup/slot",
            "loss",
        ],
    );
    for target in [0.5, 0.8, 0.9, 0.95, 0.99] {
        let pf = prefetch(&trace, |c| c.sla_target = target);
        let advance_sold = pf.ledger.sold.saturating_sub(pf.realtime_fetches());
        let replicas_per_ad = if advance_sold == 0 {
            0.0
        } else {
            pf.replicas_assigned() as f64 / advance_sold as f64
        };
        sla.push(vec![
            f(target, 2),
            f(replicas_per_ad, 2),
            pct(pf.sla_violation_rate()),
            pf.ledger.expired.to_string(),
            pf.ledger.sold.to_string(),
        ]);
        loss.push(vec![
            f(target, 2),
            f(replicas_per_ad, 2),
            pf.ledger.duplicates.to_string(),
            pct(pf.ledger.duplicates as f64 / pf.slots().max(1) as f64),
            pct(pf.revenue_loss_vs(&rt)),
        ]);
    }
    (sla, loss)
}

/// E10: sensitivity to the ad display deadline the exchange demands.
pub(crate) fn e10_deadline_sensitivity(scale: Scale) -> Table {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut table = Table::new(
        "E10",
        "deadline sensitivity (2 h syncs)",
        "short deadlines strand inventory; by ~12-24 h violations and loss become negligible",
        &["deadline h", "SLA viol", "loss", "savings", "duplicates"],
    );
    for deadline_h in [2u64, 4, 8, 12, 24] {
        let pf = prefetch(&trace, |c| {
            c.deadline = SimDuration::from_hours(deadline_h);
        });
        table.push(vec![
            deadline_h.to_string(),
            pct(pf.sla_violation_rate()),
            pct(pf.revenue_loss_vs(&rt)),
            pct(pf.energy_savings_vs(&rt)),
            pf.ledger.duplicates.to_string(),
        ]);
    }
    table
}

/// E11: the energy-vs-revenue trade-off frontier, swept by sell margin
/// and sync interval.
pub(crate) fn e11_tradeoff_frontier(scale: Scale) -> Table {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut table = Table::new(
        "E11",
        "energy savings vs. revenue loss frontier",
        "aggressive selling buys little energy and costs revenue; the knee sits near margin 1",
        &["interval h", "sell margin", "savings", "loss", "SLA viol"],
    );
    for interval_h in [1u64, 2, 4] {
        for margin in [0.5, 1.0, 1.5] {
            let pf = prefetch(&trace, |c| {
                c.prefetch_interval = SimDuration::from_hours(interval_h);
                c.sell_margin = margin;
            });
            table.push(vec![
                interval_h.to_string(),
                f(margin, 1),
                pct(pf.energy_savings_vs(&rt)),
                pct(pf.revenue_loss_vs(&rt)),
                pct(pf.sla_violation_rate()),
            ]);
        }
    }
    table
}

/// E12: how prediction quality propagates into system metrics.
pub(crate) fn e12_predictor_ablation(scale: Scale) -> Table {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut table = Table::new(
        "E12",
        "predictor ablation inside the full system",
        "better client models raise cache hits and savings; the oracle bounds what prediction can buy",
        &["predictor", "savings", "cache hit", "loss", "SLA viol"],
    );
    let kinds = [
        PredictorKind::Zero,
        PredictorKind::GlobalRate,
        PredictorKind::TimeOfDay,
        PredictorKind::DayHour,
        PredictorKind::Markov,
        PredictorKind::Quantile(0.25),
        PredictorKind::Quantile(0.75),
        PredictorKind::SessionAware,
        PredictorKind::Oracle,
    ];
    for kind in kinds {
        let pf = prefetch(&trace, |c| c.predictor = kind);
        table.push(vec![
            kind.label(),
            pct(pf.energy_savings_vs(&rt)),
            pct(pf.cache_hit_rate()),
            pct(pf.revenue_loss_vs(&rt)),
            pct(pf.sla_violation_rate()),
        ]);
    }
    table
}

/// E13: replication-policy ablation.
pub(crate) fn e13_planner_ablation(scale: Scale) -> Table {
    let trace = scale.system_trace(42);
    let rt = realtime_baseline(&trace);
    let mut table = Table::new(
        "E13",
        "replication policy ablation",
        "no replication violates the SLA on risky ads; fixed factors overpay in duplicates; greedy sits between",
        &["planner", "replicas/ad", "SLA viol", "duplicates", "loss"],
    );
    let planners = [
        PlannerKind::NoReplication,
        PlannerKind::FixedK(1),
        PlannerKind::FixedK(2),
        PlannerKind::FixedK(4),
        PlannerKind::Greedy,
    ];
    for planner in planners {
        let pf = prefetch(&trace, |c| c.planner = planner);
        let advance_sold = pf.ledger.sold.saturating_sub(pf.realtime_fetches());
        let replicas_per_ad = if advance_sold == 0 {
            0.0
        } else {
            pf.replicas_assigned() as f64 / advance_sold as f64
        };
        table.push(vec![
            planner.label(),
            f(replicas_per_ad, 2),
            pct(pf.sla_violation_rate()),
            pf.ledger.duplicates.to_string(),
            pct(pf.revenue_loss_vs(&rt)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_reproduces_the_headline() {
        let tables = e7_energy_vs_interval(Scale::Micro);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 6);
        // Every prefetch row saves substantial energy (the Micro trace is
        // cold-start dominated; Quick/Full land above 50%).
        for row in &t.rows[1..] {
            let savings: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert!(savings > 30.0, "interval {} savings {savings}", row[0]);
        }
        // The per-user CDF is monotone and the median user saves energy.
        let cdf = &tables[1];
        let median: f64 = cdf.rows[3][1].trim_end_matches('%').parse().unwrap();
        assert!(median > 20.0, "median per-user savings {median}%");
    }

    #[test]
    fn e8_replicas_grow_with_target() {
        let (sla, loss) = e8_e9_overbooking_sweep(Scale::Micro);
        let reps: Vec<f64> = sla.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            reps.last().unwrap() >= reps.first().unwrap(),
            "replicas {reps:?}"
        );
        // Duplicate share of slots stays small everywhere.
        for row in &loss.rows {
            let dup_share: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(dup_share < 5.0, "{row:?}");
        }
    }

    #[test]
    fn e10_long_deadlines_reduce_violations() {
        let t = e10_deadline_sensitivity(Scale::Micro);
        let viol: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(
            viol.last().unwrap() < viol.first().unwrap(),
            "violations {viol:?}"
        );
    }

    #[test]
    fn e12_oracle_beats_zero() {
        let t = e12_predictor_ablation(Scale::Micro);
        let get = |name: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[col]
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(get("oracle", 2) > get("zero", 2), "oracle hit rate wins");
    }

    #[test]
    fn e13_greedy_beats_no_replication_on_sla() {
        let t = e13_planner_ablation(Scale::Micro);
        let viol = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(viol("greedy") <= viol("none"));
    }
}
