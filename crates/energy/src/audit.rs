//! App-level energy audits attributing energy to in-app advertising.
//!
//! Reproduces the paper's motivation study: for each of the top free apps,
//! how much of the app's communication energy — and of its total energy —
//! is caused by ad downloads? The paper measured 65% of communication
//! energy and 23% of total energy on the top-15 free Windows Phone apps;
//! here the measurement harness is the radio model of `crate::radio` and
//! the app population is a catalog of synthetic app profiles spanning the
//! same categories (games, social, news, tools).

use adpf_desim::{SimDuration, SimTime};

use crate::profile::RadioProfile;
use crate::radio::{EnergyBreakdown, Radio};

/// An app's own (non-ad) network behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppTrafficModel {
    /// Bytes downloaded at app launch (content, config, assets).
    pub launch_down: u64,
    /// Bytes uploaded at app launch.
    pub launch_up: u64,
    /// Bytes downloaded by each periodic content refresh.
    pub periodic_down: u64,
    /// Bytes uploaded by each periodic content refresh.
    pub periodic_up: u64,
    /// Interval between periodic refreshes; `None` for apps with
    /// launch-only traffic (typical of games).
    pub periodic_interval: Option<SimDuration>,
}

impl AppTrafficModel {
    /// An app that only talks to the network at launch.
    pub fn launch_only(launch_down: u64, launch_up: u64) -> Self {
        Self {
            launch_down,
            launch_up,
            periodic_down: 0,
            periodic_up: 0,
            periodic_interval: None,
        }
    }
}

/// The in-app advertising SDK's network behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdTrafficModel {
    /// Bytes downloaded per ad (creative + auction response).
    pub ad_down: u64,
    /// Bytes uploaded per ad request (context, identifiers).
    pub ad_up: u64,
    /// Ad refresh interval while the app is in the foreground.
    pub refresh: SimDuration,
}

impl Default for AdTrafficModel {
    /// The paper's setting: small banner ads (a few KB) refreshed every
    /// 30 seconds, plus one at app launch.
    fn default() -> Self {
        Self {
            ad_down: 4 * 1024,
            ad_up: 512,
            refresh: SimDuration::from_secs(30),
        }
    }
}

/// A named application profile used by the motivation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Display name.
    pub name: &'static str,
    /// Marketplace category.
    pub category: &'static str,
    /// Average foreground sessions per day.
    pub sessions_per_day: u32,
    /// Mean session length.
    pub mean_session: SimDuration,
    /// The app's own traffic.
    pub traffic: AppTrafficModel,
}

/// Non-radio power draw while the app is in the foreground (screen + CPU +
/// GPU), in milliwatts. Used to convert communication shares into
/// total-energy shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceBaseline {
    /// Average foreground power, in milliwatts.
    pub foreground_power_mw: f64,
}

impl Default for DeviceBaseline {
    /// ~650 mW foreground draw (screen plus light CPU), typical of a
    /// 2012-era handset running a casual app.
    fn default() -> Self {
        Self {
            foreground_power_mw: 650.0,
        }
    }
}

/// Result of auditing one app's energy.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAudit {
    /// Radio energy with ads enabled.
    pub comm_with_ads: EnergyBreakdown,
    /// Radio energy with ads disabled (the counterfactual run).
    pub comm_without_ads: EnergyBreakdown,
    /// Foreground (screen/CPU) energy, in joules.
    pub baseline_j: f64,
    /// Total foreground time audited.
    pub foreground_time: SimDuration,
}

impl EnergyAudit {
    /// Marginal communication energy attributable to ads, in joules.
    pub fn ad_comm_j(&self) -> f64 {
        (self.comm_with_ads.total_j() - self.comm_without_ads.total_j()).max(0.0)
    }

    /// Ads' share of the app's communication energy (the paper's 65%
    /// metric); `0.0` when the app never used the radio.
    pub fn ad_comm_share(&self) -> f64 {
        let total = self.comm_with_ads.total_j();
        if total <= 0.0 {
            0.0
        } else {
            self.ad_comm_j() / total
        }
    }

    /// Total app energy: communication plus foreground baseline, in joules.
    pub fn total_j(&self) -> f64 {
        self.comm_with_ads.total_j() + self.baseline_j
    }

    /// Ads' share of the app's total energy (the paper's 23% metric).
    pub fn ad_total_share(&self) -> f64 {
        let total = self.total_j();
        if total <= 0.0 {
            0.0
        } else {
            self.ad_comm_j() / total
        }
    }
}

/// Audits one app over the given foreground sessions.
///
/// Runs the radio model twice over identical sessions — once with the app's
/// own traffic only, once with ad fetches added — and attributes the
/// difference to advertising. This mirrors the paper's measurement
/// methodology (diffing power traces with ads enabled/disabled).
pub fn audit_app(
    sessions: &[(SimTime, SimDuration)],
    app: &AppTrafficModel,
    ads: &AdTrafficModel,
    radio_profile: &RadioProfile,
    baseline: &DeviceBaseline,
) -> EnergyAudit {
    let with_ads = run_radio(sessions, app, Some(ads), radio_profile);
    let without_ads = run_radio(sessions, app, None, radio_profile);
    let mut foreground = SimDuration::ZERO;
    for &(_, d) in sessions {
        foreground += d;
    }
    EnergyAudit {
        comm_with_ads: with_ads,
        comm_without_ads: without_ads,
        baseline_j: baseline.foreground_power_mw * foreground.as_secs_f64() / 1_000.0,
        foreground_time: foreground,
    }
}

fn run_radio(
    sessions: &[(SimTime, SimDuration)],
    app: &AppTrafficModel,
    ads: Option<&AdTrafficModel>,
    radio_profile: &RadioProfile,
) -> EnergyBreakdown {
    // Merge all transfers of all sessions into one time-ordered stream.
    let mut transfers: Vec<(SimTime, u64, u64)> = Vec::new();
    let mut horizon = SimTime::ZERO;
    for &(start, duration) in sessions {
        let end = start + duration;
        horizon = horizon.max(end);
        transfers.push((start, app.launch_down, app.launch_up));
        if let Some(interval) = app.periodic_interval {
            if !interval.is_zero() {
                let mut t = start + interval;
                while t < end {
                    transfers.push((t, app.periodic_down, app.periodic_up));
                    t += interval;
                }
            }
        }
        if let Some(ads) = ads {
            transfers.push((start, ads.ad_down, ads.ad_up));
            if !ads.refresh.is_zero() {
                let mut t = start + ads.refresh;
                while t < end {
                    transfers.push((t, ads.ad_down, ads.ad_up));
                    t += ads.refresh;
                }
            }
        }
    }
    transfers.sort_by_key(|&(t, _, _)| t);
    let mut radio = Radio::new(radio_profile.clone());
    for (t, down, up) in transfers {
        radio.transfer(t, down, up);
    }
    radio.finish(horizon + radio_profile.tail_duration())
}

/// Generates deterministic, evenly spaced foreground sessions for an app
/// profile: `sessions_per_day` sessions per day inside a 08:00–23:00 waking
/// window, for `days` days.
///
/// The motivation study reports per-app *averages*, so a deterministic
/// schedule is sufficient; the full-system experiments use the stochastic
/// generator in `adpf-traces` instead.
pub fn synth_sessions(profile: &AppProfile, days: u32) -> Vec<(SimTime, SimDuration)> {
    let mut out = Vec::new();
    let window_start = SimDuration::from_hours(8);
    let window = SimDuration::from_hours(15);
    let n = profile.sessions_per_day.max(1) as u64;
    for day in 0..days as u64 {
        for k in 0..n {
            let offset = window.mul_f64((k as f64 + 0.5) / n as f64);
            let start = SimTime::from_days(day) + window_start + offset;
            out.push((start, profile.mean_session));
        }
    }
    out
}

/// The synthetic top-15 free app catalog used by experiment E1.
///
/// Categories and traffic shapes mirror the composition of 2012-era top
/// free app charts: mostly games with launch-only traffic, plus social,
/// news, weather, and streaming apps with periodic content refreshes.
pub fn top_apps() -> Vec<AppProfile> {
    let s = SimDuration::from_secs;
    vec![
        AppProfile {
            name: "BirdToss",
            category: "games",
            sessions_per_day: 6,
            mean_session: s(420),
            traffic: AppTrafficModel::launch_only(60 * 1024, 2 * 1024),
        },
        AppProfile {
            name: "GemSwap",
            category: "games",
            sessions_per_day: 5,
            mean_session: s(360),
            traffic: AppTrafficModel::launch_only(40 * 1024, 1024),
        },
        AppProfile {
            name: "RopeCut",
            category: "games",
            sessions_per_day: 4,
            mean_session: s(300),
            traffic: AppTrafficModel::launch_only(30 * 1024, 1024),
        },
        AppProfile {
            name: "WordChums",
            category: "games",
            sessions_per_day: 8,
            mean_session: s(180),
            traffic: AppTrafficModel {
                launch_down: 25 * 1024,
                launch_up: 2 * 1024,
                periodic_down: 4 * 1024,
                periodic_up: 2 * 1024,
                periodic_interval: Some(s(60)),
            },
        },
        AppProfile {
            name: "DoodleRun",
            category: "games",
            sessions_per_day: 5,
            mean_session: s(240),
            traffic: AppTrafficModel::launch_only(20 * 1024, 1024),
        },
        AppProfile {
            name: "SocialBook",
            category: "social",
            sessions_per_day: 12,
            mean_session: s(150),
            traffic: AppTrafficModel {
                launch_down: 150 * 1024,
                launch_up: 8 * 1024,
                periodic_down: 40 * 1024,
                periodic_up: 4 * 1024,
                periodic_interval: Some(s(75)),
            },
        },
        AppProfile {
            name: "Chirper",
            category: "social",
            sessions_per_day: 10,
            mean_session: s(120),
            traffic: AppTrafficModel {
                launch_down: 80 * 1024,
                launch_up: 4 * 1024,
                periodic_down: 25 * 1024,
                periodic_up: 2 * 1024,
                periodic_interval: Some(s(70)),
            },
        },
        AppProfile {
            name: "PicFilter",
            category: "social",
            sessions_per_day: 4,
            mean_session: s(200),
            traffic: AppTrafficModel {
                launch_down: 120 * 1024,
                launch_up: 60 * 1024,
                periodic_down: 40 * 1024,
                periodic_up: 10 * 1024,
                periodic_interval: Some(s(50)),
            },
        },
        AppProfile {
            name: "DailyNews",
            category: "news",
            sessions_per_day: 3,
            mean_session: s(300),
            traffic: AppTrafficModel {
                launch_down: 200 * 1024,
                launch_up: 4 * 1024,
                periodic_down: 60 * 1024,
                periodic_up: 2 * 1024,
                periodic_interval: Some(s(90)),
            },
        },
        AppProfile {
            name: "SkyWeather",
            category: "weather",
            sessions_per_day: 4,
            mean_session: s(60),
            traffic: AppTrafficModel {
                launch_down: 30 * 1024,
                launch_up: 1024,
                periodic_down: 10 * 1024,
                periodic_up: 512,
                periodic_interval: Some(s(60)),
            },
        },
        AppProfile {
            name: "TuneStream",
            category: "music",
            sessions_per_day: 2,
            mean_session: s(600),
            traffic: AppTrafficModel {
                launch_down: 100 * 1024,
                launch_up: 2 * 1024,
                periodic_down: 250 * 1024,
                periodic_up: 2 * 1024,
                periodic_interval: Some(s(120)),
            },
        },
        AppProfile {
            name: "FlashLightPro",
            category: "tools",
            sessions_per_day: 3,
            mean_session: s(45),
            traffic: AppTrafficModel::launch_only(4 * 1024, 512),
        },
        AppProfile {
            name: "BarScan",
            category: "tools",
            sessions_per_day: 2,
            mean_session: s(90),
            traffic: AppTrafficModel {
                launch_down: 10 * 1024,
                launch_up: 2 * 1024,
                periodic_down: 15 * 1024,
                periodic_up: 4 * 1024,
                periodic_interval: Some(s(45)),
            },
        },
        AppProfile {
            name: "QuizMania",
            category: "games",
            sessions_per_day: 4,
            mean_session: s(270),
            traffic: AppTrafficModel {
                launch_down: 15 * 1024,
                launch_up: 1024,
                periodic_down: 3 * 1024,
                periodic_up: 1024,
                periodic_interval: Some(s(75)),
            },
        },
        AppProfile {
            name: "SolitairePlus",
            category: "games",
            sessions_per_day: 6,
            mean_session: s(330),
            traffic: AppTrafficModel::launch_only(8 * 1024, 512),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profiles;

    #[test]
    fn catalog_has_fifteen_apps() {
        let apps = top_apps();
        assert_eq!(apps.len(), 15);
        assert!(apps.iter().any(|a| a.category == "games"));
        assert!(apps.iter().any(|a| a.traffic.periodic_interval.is_some()));
    }

    #[test]
    fn synth_sessions_stay_in_waking_window() {
        let apps = top_apps();
        let sessions = synth_sessions(&apps[0], 7);
        assert_eq!(sessions.len(), 7 * apps[0].sessions_per_day as usize);
        for &(start, _) in &sessions {
            let h = start.hour_of_day();
            assert!((8..23).contains(&h), "session at hour {h}");
        }
    }

    #[test]
    fn ads_add_energy() {
        let apps = top_apps();
        let sessions = synth_sessions(&apps[0], 1);
        let audit = audit_app(
            &sessions,
            &apps[0].traffic,
            &AdTrafficModel::default(),
            &profiles::umts_3g(),
            &DeviceBaseline::default(),
        );
        assert!(audit.ad_comm_j() > 0.0);
        assert!(audit.ad_comm_share() > 0.0 && audit.ad_comm_share() < 1.0);
        assert!(audit.ad_total_share() < audit.ad_comm_share());
    }

    #[test]
    fn launch_only_game_has_ad_dominated_comm_energy() {
        // A game with tiny launch traffic and a 5-minute session shows ~10
        // ads; the ads' tails dominate its communication energy.
        let app = AppTrafficModel::launch_only(8 * 1024, 512);
        let sessions = vec![(SimTime::from_hours(10), SimDuration::from_secs(300))];
        let audit = audit_app(
            &sessions,
            &app,
            &AdTrafficModel::default(),
            &profiles::umts_3g(),
            &DeviceBaseline::default(),
        );
        assert!(
            audit.ad_comm_share() > 0.6,
            "share {}",
            audit.ad_comm_share()
        );
    }

    #[test]
    fn catalog_average_matches_paper_band() {
        // The calibration the paper reports: ads are ~65% of communication
        // energy and ~23% of total energy averaged over the top-15 apps.
        let radio = profiles::umts_3g();
        let ads = AdTrafficModel::default();
        let baseline = DeviceBaseline::default();
        let mut comm_shares = Vec::new();
        let mut total_shares = Vec::new();
        for app in top_apps() {
            let sessions = synth_sessions(&app, 3);
            let audit = audit_app(&sessions, &app.traffic, &ads, &radio, &baseline);
            comm_shares.push(audit.ad_comm_share());
            total_shares.push(audit.ad_total_share());
        }
        let comm_avg = comm_shares.iter().sum::<f64>() / comm_shares.len() as f64;
        let total_avg = total_shares.iter().sum::<f64>() / total_shares.len() as f64;
        assert!(
            (0.45..0.85).contains(&comm_avg),
            "comm share average {comm_avg}"
        );
        assert!(
            (0.10..0.40).contains(&total_avg),
            "total share average {total_avg}"
        );
    }

    #[test]
    fn no_sessions_audit_is_zero() {
        let audit = audit_app(
            &[],
            &AppTrafficModel::launch_only(1024, 128),
            &AdTrafficModel::default(),
            &profiles::umts_3g(),
            &DeviceBaseline::default(),
        );
        assert_eq!(audit.ad_comm_share(), 0.0);
        assert_eq!(audit.total_j(), 0.0);
    }
}
