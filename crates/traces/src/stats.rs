//! Trace summaries for the dataset table and predictability figures.

use adpf_desim::SimDuration;
use adpf_stats::hist::HourProfile;
use adpf_stats::summary::Summary;
use adpf_stats::Ecdf;

use crate::model::{Trace, UserId};

/// Aggregate statistics of one trace (the paper's dataset table).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Population size.
    pub users: u32,
    /// Users with at least one session.
    pub active_users: u32,
    /// Trace length in days.
    pub days: u32,
    /// Total sessions.
    pub sessions: usize,
    /// Total derived ad slots at the configured refresh interval.
    pub slots: usize,
    /// Distribution of per-user sessions per day.
    pub sessions_per_user_day: Summary,
    /// Distribution of per-user ad slots per day.
    pub slots_per_user_day: Summary,
    /// Distribution of session durations, in seconds.
    pub session_secs: Summary,
    /// Hour-of-day profile of slot demand.
    pub slot_hours: HourProfile,
}

impl TraceStats {
    /// Computes statistics with the given ad refresh interval.
    pub fn compute(trace: &Trace, refresh: SimDuration) -> Self {
        let days = trace.days().max(1);
        let n = trace.num_users() as usize;
        let mut sessions_per_user = vec![0u32; n];
        let mut durations = Vec::with_capacity(trace.sessions().len());
        for s in trace.sessions() {
            let user = s.user().0 as usize;
            if user < n {
                sessions_per_user[user] += 1;
            }
            durations.push(s.duration().as_secs_f64());
        }
        let mut slots = 0;
        let mut slots_per_user = vec![0u32; n];
        let mut slot_hours = HourProfile::new();
        for slot in trace.slots(refresh) {
            slots += 1;
            if (slot.user.0 as usize) < n {
                slots_per_user[slot.user.0 as usize] += 1;
            }
            slot_hours.add(slot.time.hour_of_day(), 1.0);
        }
        let active_users = sessions_per_user.iter().filter(|&&c| c > 0).count() as u32;
        let per_day = |counts: &[u32]| -> Vec<f64> {
            counts.iter().map(|&c| c as f64 / days as f64).collect()
        };
        Self {
            users: trace.num_users(),
            active_users,
            days,
            sessions: trace.sessions().len(),
            slots,
            sessions_per_user_day: Summary::from_slice(&per_day(&sessions_per_user)),
            slots_per_user_day: Summary::from_slice(&per_day(&slots_per_user)),
            session_secs: Summary::from_slice(&durations),
            slot_hours,
        }
    }
}

/// ECDF of per-user slots per day — the predictability figure's x-axis.
pub fn slots_per_day_ecdf(trace: &Trace, refresh: SimDuration) -> Ecdf {
    let days = trace.days().max(1) as f64;
    let mut per_user = vec![0u32; trace.num_users() as usize];
    for slot in trace.slots(refresh) {
        let i = slot.user.0 as usize;
        if i < per_user.len() {
            per_user[i] += 1;
        }
    }
    Ecdf::new(per_user.iter().map(|&c| c as f64 / days).collect())
}

/// Lag-`k`-days autocorrelation of one user's daily slot counts; measures
/// how much yesterday predicts today (the basis of the paper's client
/// models).
pub fn daily_autocorrelation(trace: &Trace, user: UserId, refresh: SimDuration, lag: usize) -> f64 {
    let days = trace.days() as usize;
    let mut daily = vec![0.0f64; days];
    for slot in trace.slots(refresh) {
        if slot.user == user {
            let d = slot.time.day_index() as usize;
            if d < days {
                daily[d] += 1.0;
            }
        }
    }
    adpf_stats::autocorrelation(&daily, lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::PopulationConfig;

    #[test]
    fn stats_are_consistent() {
        let trace = PopulationConfig::small_test(23).generate();
        let stats = TraceStats::compute(&trace, SimDuration::from_secs(30));
        assert_eq!(stats.users, 40);
        assert!(stats.active_users <= stats.users);
        assert!(stats.active_users > 30, "most users should be active");
        assert_eq!(stats.sessions, trace.sessions().len());
        assert!(stats.slots >= stats.sessions);
        assert!(stats.slots_per_user_day.mean >= stats.sessions_per_user_day.mean);
        assert!(stats.session_secs.mean > 0.0);
        // The diurnal profile peaks in the evening.
        assert!((18..=22).contains(&stats.slot_hours.peak_hour()));
    }

    #[test]
    fn ecdf_covers_population() {
        let trace = PopulationConfig::small_test(29).generate();
        let e = slots_per_day_ecdf(&trace, SimDuration::from_secs(30));
        assert_eq!(e.len(), 40);
        assert!(e.quantile(0.5) > 0.0);
    }

    #[test]
    fn autocorrelation_is_bounded() {
        let trace = PopulationConfig::small_test(31).generate();
        let ac = daily_autocorrelation(&trace, UserId(0), SimDuration::from_secs(30), 1);
        assert!((-1.0..=1.0).contains(&ac));
    }
}
