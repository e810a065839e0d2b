//! E15: ablation of the reconstruction's mechanism-level design choices.
//!
//! DESIGN.md documents four mechanisms introduced while reconstructing the
//! system from the abstract (piggybacked syncs, replica holdback, deferred
//! reports, bursty availability) plus the failure-injection knob. This
//! experiment turns each off (or to its naive setting) individually and
//! shows what it buys.

use adpf_core::{Simulator, SystemConfig};

use crate::scale::Scale;
use crate::table::{pct, Table};

fn variant(label: &str, tweak: impl FnOnce(&mut SystemConfig)) -> (String, SystemConfig) {
    let mut cfg = SystemConfig::prefetch_default(1);
    tweak(&mut cfg);
    (label.to_string(), cfg)
}

/// E15: each mechanism disabled in isolation, against the default.
pub(crate) fn e15_mechanism_ablation(scale: Scale) -> Table {
    let trace = scale.system_trace(42);
    let rt = Simulator::new(SystemConfig::realtime(1), &trace).run();

    let variants: Vec<(String, SystemConfig)> = vec![
        variant("default", |_| {}),
        // The session-aware predictor deliberately sells ~nothing while
        // idle, so without piggybacked syncs it degenerates to real-time;
        // the fair interval-only variant pairs it with a diurnal model
        // that sells speculatively at periodic syncs.
        variant("no piggyback", |c| c.piggyback_on_fallback = false),
        variant("no piggyback + day-hour", |c| {
            c.piggyback_on_fallback = false;
            c.predictor = adpf_prediction::PredictorKind::DayHour;
        }),
        variant("eager reports", |c| c.defer_report_syncs = false),
        variant("no replica holdback", |c| {
            // Replicas displayable for their whole lifetime.
            c.replica_window = c.deadline;
        }),
        variant("poisson availability", |c| {
            // No day-level overdispersion discount.
            c.availability_dispersion = 1.0;
        }),
        variant("20% sync dropout", |c| c.sync_dropout = 0.2),
    ];

    let mut table = Table::new(
        "E15",
        "mechanism ablation (each knob flipped in isolation)",
        "reconstruction-level design choices: what each mechanism buys",
        &[
            "variant",
            "savings",
            "cache hit",
            "loss",
            "SLA viol",
            "dup/slot",
        ],
    );
    for (label, cfg) in variants {
        let pf = Simulator::new(cfg, &trace).run();
        table.push(vec![
            label,
            pct(pf.energy_savings_vs(&rt)),
            pct(pf.cache_hit_rate()),
            pct(pf.revenue_loss_vs(&rt)),
            pct(pf.sla_violation_rate()),
            pct(pf.ledger.duplicates as f64 / pf.slots().max(1) as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_mechanisms_earn_their_keep() {
        let t = e15_mechanism_ablation(Scale::Micro);
        let get = |name: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))[col]
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        // Piggybacking is a large chunk of the energy story.
        assert!(
            get("default", 1) > get("no piggyback", 1),
            "piggybacking must save energy"
        );
        // Removing the holdback increases duplicate displays.
        assert!(get("no replica holdback", 5) >= get("default", 5));
        // Dropout degrades but does not zero the savings.
        assert!(get("20% sync dropout", 1) > 10.0);
    }
}
