//! E3–E4: trace characterization (dataset table, predictability).

use adpf_desim::SimDuration;
use adpf_traces::stats::{daily_autocorrelation, slots_per_day_ecdf};
use adpf_traces::{TraceStats, UserId};

use crate::scale::Scale;
use crate::table::{f, pct, Note, Table};

const REFRESH: SimDuration = SimDuration::from_secs(30);

/// E3: the dataset summary table.
pub(crate) fn e3_dataset_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3",
        "usage trace datasets (synthetic substitutes, 30 s ad refresh)",
        Note::Paper("1,693 iPhone users + in-lab Windows Phone users over several weeks"),
        &[
            "dataset",
            "users",
            "active",
            "days",
            "sessions",
            "sess/user/day",
            "slots/user/day",
            "median sess s",
        ],
    );
    for (name, cfg) in [
        ("iphone-like", scale.iphone(42)),
        ("wp-like", scale.windows_phone(43)),
    ] {
        let trace = cfg.generate();
        let s = TraceStats::compute(&trace, REFRESH);
        table.push(vec![
            name.into(),
            s.users.to_string(),
            s.active_users.to_string(),
            s.days.to_string(),
            s.sessions.to_string(),
            f(s.sessions_per_user_day.mean, 1),
            f(s.slots_per_user_day.mean, 1),
            f(s.session_secs.median, 0),
        ]);
    }
    table
}

/// E4: predictability of slot demand — per-user slots/day CDF, the
/// hour-of-day demand profile, and day-over-day autocorrelation.
pub(crate) fn e4_predictability(scale: Scale) -> Vec<Table> {
    let trace = scale.iphone(42).generate();

    let mut cdf = Table::new(
        "E4a",
        "CDF of per-user ad slots per day (iphone-like)",
        Note::Paper("per-user demand is heterogeneous and heavy-tailed"),
        &["percentile", "slots/day"],
    );
    let e = slots_per_day_ecdf(&trace, REFRESH);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        cdf.push(vec![pct(q), f(e.quantile(q), 1)]);
    }

    let stats = TraceStats::compute(&trace, REFRESH);
    let mut hours = Table::new(
        "E4b",
        "hour-of-day share of slot demand",
        Note::Paper("demand is strongly diurnal, the basis of the client models"),
        &["hour", "share"],
    );
    for h in 0..24 {
        hours.push(vec![format!("{h:02}"), pct(stats.slot_hours.fraction(h))]);
    }

    let mut ac = Table::new(
        "E4c",
        "mean day-over-day autocorrelation of per-user daily slot counts",
        Note::Paper("yesterday predicts today: the client models have signal to work with"),
        &["lag days", "mean autocorrelation"],
    );
    let sample: Vec<u32> = (0..trace.num_users().min(60)).collect();
    for lag in [1usize, 2, 7] {
        let mut acc = 0.0;
        for &u in &sample {
            acc += daily_autocorrelation(&trace, UserId(u), REFRESH, lag);
        }
        ac.push(vec![lag.to_string(), f(acc / sample.len() as f64, 3)]);
    }

    vec![cdf, hours, ac]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_has_both_datasets() {
        let t = e3_dataset_table(Scale::Micro);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "iphone-like");
        let slots: f64 = t.rows[0][6].to_string().parse().unwrap();
        let sessions: f64 = t.rows[0][5].to_string().parse().unwrap();
        assert!(slots >= sessions, "every session has at least one slot");
    }

    #[test]
    fn e4_shapes_match_expectations() {
        let tables = e4_predictability(Scale::Micro);
        // CDF is non-decreasing.
        let vals: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|r| r[1].to_string().parse().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        // Evening exceeds pre-dawn demand.
        let share = |t: &Table, h: usize| -> f64 {
            t.rows[h][1]
                .to_string()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(share(&tables[1], 20) > share(&tables[1], 3));
        // Positive day-over-day autocorrelation at lag 1.
        let ac1: f64 = tables[2].rows[0][1].to_string().parse().unwrap();
        assert!(ac1 > -0.2, "lag-1 autocorrelation {ac1}");
    }
}
