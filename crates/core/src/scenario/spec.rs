//! Scenario specifications: what a named preset means.
//!
//! A [`ScenarioSpec`] is the declarative description of one scenario —
//! the device-class mix, churn fractions, burst window, cell-capacity
//! ceiling, and optional netem binding. It is pure data: the trace-side
//! half is interpreted by [`ScenarioPopulation`](super::ScenarioPopulation),
//! the engine-side half is installed on a `SystemConfig` by
//! [`ScenarioSpec::apply_to`] (which fills `SystemConfig::scenario` and,
//! when bound, the netem preset).

use adpf_desim::{SimDuration, SimTime};
use adpf_netem::NetemConfig;

use super::{CellCapacity, DeviceClass, ScenarioConfig};
use crate::SystemConfig;

/// Mid-trace arrivals and departures.
///
/// A user whose arrival coordinate falls below `arrival_fraction`
/// produces no sessions before their arrival time — the simulator sees
/// an empty predictor history until then (the cold-start regime).
/// Departures mirror this at the other end. Both times are uniform over
/// the horizon, derived from stable per-user coordinates, so churn is
/// invariant under sharding and streaming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Fraction of users that arrive mid-trace, in `[0, 1]`.
    pub arrival_fraction: f64,
    /// Fraction of users that depart before the horizon, in `[0, 1]`.
    pub departure_fraction: f64,
}

impl ChurnSpec {
    /// No churn: everyone is present for the whole trace.
    pub(crate) fn none() -> Self {
        Self {
            arrival_fraction: 0.0,
            departure_fraction: 0.0,
        }
    }
}

/// An app-release flash crowd: extra sessions of app
/// [`BurstSpec::APP`] injected over `[START, START + DURATION)` for users
/// in the affected regions. Only its intensity varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Mean extra sessions per affected user over the window (Poisson).
    pub intensity: f64,
}

impl BurstSpec {
    /// Burst window start: day 3, 19:00 (the diurnal peak).
    pub const START: SimTime = SimTime::from_hours(3 * 24 + 19);
    /// Burst window length.
    pub(crate) const DURATION: SimDuration = SimDuration::from_hours(2);
    /// Fraction of cell regions hit. Regions `0..k` are affected,
    /// `k = round(fraction × regions)` — the crowd piles onto specific
    /// cells, which is what makes the per-region capacity ceiling bite.
    const REGION_FRACTION: f64 = 0.5;
    /// The hot app everyone opens.
    pub(crate) const APP: u16 = 0;
    /// Shortest injected session, in seconds.
    pub(crate) const MIN_SECS: u64 = 30;
    /// Longest injected session, in seconds (inclusive).
    pub(crate) const MAX_SECS: u64 = 180;

    /// The canonical flash crowd: three extra sessions per affected user
    /// on average.
    pub(crate) fn evening_release() -> Self {
        Self { intensity: 3.0 }
    }

    /// Number of affected regions out of `regions`.
    pub(crate) fn affected_regions(regions: u32) -> u32 {
        (Self::REGION_FRACTION * regions as f64).round() as u32
    }
}

/// A complete scenario: mix + churn + burst + cell ceiling + optional
/// netem binding, under one preset name.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Preset name (report headers, CLI).
    pub name: String,
    /// The device-class mix, in weight-walk order. A user's class is
    /// the same pure function of `(assign seed, global user id)` on the
    /// trace side and in the engine, so both always agree.
    pub classes: Vec<DeviceClass>,
    /// Mid-trace arrivals/departures.
    pub churn: ChurnSpec,
    /// Flash-crowd burst, if any.
    pub burst: Option<BurstSpec>,
    /// Per-region cell-capacity ceiling (engine side).
    pub cell: CellCapacity,
    /// Netem preset the scenario binds, if any (`None` keeps whatever
    /// the config already has, letting `--netem` compose freely).
    pub netem: Option<NetemConfig>,
}

impl ScenarioSpec {
    /// Resolves a CLI preset name. The canonical name set shared by the
    /// `simulate`, `tracegen`, and `serve` binaries.
    ///
    /// - `mixed`: the three-class device mix, no churn, no burst.
    /// - `churn`: the mix plus 30% mid-trace arrivals / 20% departures.
    /// - `flashcrowd`: the mix plus an evening app-release burst, a
    ///   per-region cell ceiling, and a netem outage overlapping the
    ///   burst — the composed stress case.
    pub fn parse_preset(name: &str) -> Result<Self, String> {
        Ok(match name {
            "mixed" => Self::mixed(),
            "churn" => Self::churn(),
            "flashcrowd" => Self::flash_crowd(),
            other => return Err(format!("unknown scenario preset `{other}`")),
        })
    }

    /// The canonical three-class device mix alone: 40% WiFi-heavy (long
    /// sessions), 35% LTE, 25% 3G-budget with a 1 MiB/period data plan
    /// and short sessions.
    pub fn mixed() -> Self {
        Self {
            name: "mixed".to_string(),
            classes: vec![
                DeviceClass::wifi_heavy(0.40),
                DeviceClass::lte(0.35),
                DeviceClass::budget_3g(0.25, 1 << 20),
            ],
            churn: ChurnSpec::none(),
            burst: None,
            cell: CellCapacity::disabled(),
            netem: None,
        }
    }

    /// The mix plus churn: 30% of users arrive mid-trace with no prior
    /// history, 20% depart early.
    pub fn churn() -> Self {
        Self {
            name: "churn".to_string(),
            churn: ChurnSpec {
                arrival_fraction: 0.30,
                departure_fraction: 0.20,
            },
            ..Self::mixed()
        }
    }

    /// The composed stress case: mix + evening flash crowd + a 4-region
    /// cell ceiling + flaky netem with a blackout covering the first
    /// half of the burst on a quarter of the population.
    pub fn flash_crowd() -> Self {
        let outage_start_h = BurstSpec::START.as_millis() / adpf_desim::time::MILLIS_PER_HOUR;
        Self {
            name: "flashcrowd".to_string(),
            burst: Some(BurstSpec::evening_release()),
            cell: CellCapacity::capped(600),
            netem: Some(NetemConfig::flaky_cellular().with_outage(
                outage_start_h,
                SimDuration::from_hours(1),
                0.25,
            )),
            ..Self::mixed()
        }
    }

    /// Installs the engine-side half of the scenario on `config`: the
    /// scenario layer (classes, cell ceiling, assignment seed) and, when
    /// the spec binds one, the netem preset. `assign_seed` must be the
    /// population seed so the engine's class assignment matches the
    /// trace generator's.
    pub fn apply_to(&self, config: &mut SystemConfig, assign_seed: u64) {
        config.scenario = ScenarioConfig {
            enabled: true,
            name: self.name.clone(),
            assign_seed,
            classes: self.classes.clone(),
            cell: self.cell.clone(),
            user_offset: 0,
        };
        if let Some(netem) = &self.netem {
            config.netem = netem.clone();
        }
    }

    /// Validates the trace-side invariants the generator relies on (the
    /// engine-side half is validated by `SystemConfig::validate` after
    /// [`ScenarioSpec::apply_to`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("scenario: mix needs at least one class".into());
        }
        for c in &self.classes {
            if !(c.session_scale.is_finite() && c.session_scale > 0.0) {
                return Err(format!(
                    "scenario: class `{}` session_scale {} must be positive and finite",
                    c.name, c.session_scale
                ));
            }
        }
        for (label, f) in [
            ("arrival", self.churn.arrival_fraction),
            ("departure", self.churn.departure_fraction),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("scenario: {label} fraction {f} outside [0, 1]"));
            }
        }
        if let Some(b) = &self.burst {
            if !(b.intensity.is_finite() && b.intensity >= 0.0) {
                return Err(format!("scenario: burst intensity {} invalid", b.intensity));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_validate() {
        for name in ["mixed", "churn", "flashcrowd"] {
            let spec = ScenarioSpec::parse_preset(name).unwrap();
            assert_eq!(spec.name, name);
            assert_eq!(spec.validate(), Ok(()));
        }
        assert!(ScenarioSpec::parse_preset("rush-hour").is_err());
    }

    #[test]
    fn apply_to_installs_engine_half_and_validates() {
        let mut cfg = SystemConfig::prefetch_default(9);
        ScenarioSpec::mixed().apply_to(&mut cfg, 1234);
        assert!(cfg.scenario.enabled);
        assert_eq!(cfg.scenario.assign_seed, 1234);
        assert_eq!(cfg.scenario.classes.len(), 3);
        assert!(!cfg.netem.enabled, "mixed binds no netem");
        assert_eq!(cfg.validate(), Ok(()));

        let mut cfg = SystemConfig::prefetch_default(9);
        ScenarioSpec::flash_crowd().apply_to(&mut cfg, 1234);
        assert!(cfg.netem.enabled, "flashcrowd binds flaky+outage netem");
        assert_eq!(cfg.netem.outages.len(), 1);
        assert!(cfg.scenario.cell.enabled);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn outage_overlaps_the_burst_window() {
        let spec = ScenarioSpec::flash_crowd();
        let o = spec.netem.unwrap().outages[0];
        assert!(o.start >= BurstSpec::START && o.start < BurstSpec::START + BurstSpec::DURATION);
    }

    #[test]
    fn burst_affected_regions_round_half_up() {
        assert_eq!(BurstSpec::affected_regions(4), 2);
        assert_eq!(BurstSpec::affected_regions(3), 2, "rounds 1.5 up");
    }

    #[test]
    fn validation_catches_degenerate_specs() {
        let mut spec = ScenarioSpec::mixed();
        spec.classes.clear();
        assert!(spec.validate().is_err(), "empty mix");

        let mut spec = ScenarioSpec::mixed();
        spec.classes[0].session_scale = 0.0;
        assert!(spec.validate().is_err(), "zero session scale");

        let mut spec = ScenarioSpec::churn();
        spec.churn.arrival_fraction = 1.5;
        assert!(spec.validate().is_err(), "fraction above 1");

        let mut spec = ScenarioSpec::flash_crowd();
        spec.burst.as_mut().unwrap().intensity = f64::NAN;
        assert!(spec.validate().is_err(), "NaN intensity");
    }
}
