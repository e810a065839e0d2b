//! E1–E2: the motivation study (ad energy share, tail energy).

use adpf_desim::{SimDuration, SimTime};
use adpf_energy::{audit, profiles, Radio};

use crate::scale::Scale;
use crate::table::{f, pct, Table};

/// E1: per-app share of energy attributable to in-app ads.
pub(crate) fn e1_ad_energy_share(scale: Scale) -> Table {
    let days = match scale {
        Scale::Micro => 1,
        Scale::Quick => 3,
        Scale::Full => 14,
    };
    let radio = profiles::umts_3g();
    let ads = audit::AdTrafficModel::default();
    let baseline = audit::DeviceBaseline::default();
    let mut table = Table::new(
        "E1",
        "in-app advertising energy share, top-15 free apps (3G)",
        "ads account for ~65% of app communication energy and ~23% of total app energy",
        &[
            "app",
            "category",
            "comm J/day",
            "ad J/day",
            "ad% of comm",
            "ad% of total",
        ],
    );
    let mut comm_shares = Vec::new();
    let mut total_shares = Vec::new();
    for app in audit::top_apps() {
        let sessions = audit::synth_sessions(&app, days);
        let a = audit::audit_app(&sessions, &app.traffic, &ads, &radio, &baseline);
        comm_shares.push(a.ad_comm_share());
        total_shares.push(a.ad_total_share());
        table.push(vec![
            app.name.to_string(),
            app.category.to_string(),
            f(a.comm_with_ads.total_j() / days as f64, 1),
            f(a.ad_comm_j() / days as f64, 1),
            pct(a.ad_comm_share()),
            pct(a.ad_total_share()),
        ]);
    }
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    table.push(vec![
        "AVERAGE".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        pct(avg(&comm_shares)),
        pct(avg(&total_shares)),
    ]);
    table
}

/// E2: the tail-energy mechanism — per-ad energy versus inter-fetch gap,
/// and a radio-state timeline of one ad-supported session.
pub(crate) fn e2_tail_energy() -> Vec<Table> {
    let profile = profiles::umts_3g();

    let mut sweep = Table::new(
        "E2a",
        "per-ad radio energy vs. inter-fetch gap (3G, 4 KB ads)",
        "closely spaced fetches share one tail; beyond the ~17 s tail every fetch pays in full",
        &["gap s", "J/ad", "tail share", "promotions"],
    );
    for gap_s in [1u64, 5, 10, 15, 20, 30, 45, 60] {
        let mut radio = Radio::new(profile.clone());
        let n = 20u64;
        for k in 0..n {
            radio.transfer(SimTime::from_secs(k * gap_s), 4 * 1024, 512);
        }
        let e = radio.finish(SimTime::from_secs(n * gap_s + 3_600));
        sweep.push(vec![
            gap_s.to_string(),
            f(e.total_j() / n as f64, 2),
            pct(e.tail_fraction()),
            e.promotions.to_string(),
        ]);
    }

    let mut timeline = Table::new(
        "E2b",
        "radio state timeline: one 2-minute session, 30 s ad refresh (3G)",
        "each refresh re-wakes the radio into multi-second high-power tails",
        &["start", "end", "state", "seconds"],
    );
    let mut radio = Radio::with_timeline(profile);
    for k in 0..4u64 {
        radio.transfer(SimTime::from_secs(k * 30), 4 * 1024, 512);
    }
    radio.finish(SimTime::from_secs(120) + SimDuration::from_secs(60));
    for iv in radio.timeline().expect("timeline enabled").intervals() {
        timeline.push(vec![
            iv.start.to_string(),
            iv.end.to_string(),
            iv.state.label(),
            f(iv.duration().as_secs_f64(), 2),
        ]);
    }
    vec![sweep, timeline]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_average_lands_in_paper_band() {
        let t = e1_ad_energy_share(Scale::Micro);
        assert_eq!(t.rows.len(), 16); // 15 apps + average.
        let avg = t.rows.last().unwrap();
        let comm: f64 = avg[4].to_string().trim_end_matches('%').parse().unwrap();
        let total: f64 = avg[5].to_string().trim_end_matches('%').parse().unwrap();
        assert!((45.0..85.0).contains(&comm), "comm share {comm}");
        assert!((10.0..40.0).contains(&total), "total share {total}");
    }

    #[test]
    fn e2_energy_grows_with_gap_then_saturates() {
        let tables = e2_tail_energy();
        let sweep = &tables[0];
        let j: Vec<f64> = sweep
            .rows
            .iter()
            .map(|r| r[1].to_string().parse().unwrap())
            .collect();
        assert!(j.first().unwrap() * 2.0 < *j.last().unwrap());
        // Beyond the 17 s tail the cost per ad is flat.
        let idx30 = sweep.rows.iter().position(|r| r[0] == "30").unwrap();
        let idx60 = sweep.rows.iter().position(|r| r[0] == "60").unwrap();
        assert!((j[idx30] - j[idx60]).abs() < 0.05);
        // The timeline covers all macro states.
        let visits = |state: &str| tables[1].rows.iter().any(|r| r[2] == state);
        assert!(visits("PROMO"));
        assert!(visits("XFER"));
        assert!(visits("TAIL0"));
    }
}
