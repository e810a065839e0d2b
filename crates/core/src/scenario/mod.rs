//! The scenario layer: deterministic regimes the paper's homogeneous
//! population skips, composed over the existing stack without touching
//! its determinism contract.
//!
//! - **Mixed populations** ([`ScenarioSpec::mixed`]): a weighted mix of
//!   [`DeviceClass`]es (WiFi-heavy / LTE / 3G-budget), each binding its
//!   own energy profile, app-session shape, and optional monthly
//!   data-plan cap that gates prefetch once exhausted.
//! - **Churn and cold start** ([`ChurnSpec`]): a fraction of users
//!   arrive mid-trace (no sessions — hence no predictor history — before
//!   their arrival time) and a fraction depart early.
//! - **Burst events** ([`BurstSpec`]): an app-release flash crowd
//!   injects extra sessions of one hot app over a window, concentrated
//!   on a subset of cell regions, where the AdCell-style per-region
//!   [`CellCapacity`] ceiling bites. A scenario can also bind a netem
//!   preset so the burst composes with outage windows.
//! - **User-cost accounting**: installing a scenario on a
//!   `SystemConfig` turns on the engine's scenario state, which fills
//!   `SimReport::scenario` — metered bytes, wasted prefetch bytes,
//!   display-latency percentiles, cap/cell counters.
//!
//! A [`ScenarioSpec`] is the declarative description of one scenario.
//! Its trace-side half is applied by [`ScenarioPopulation`], which wraps
//! an [`adpf_traces::PopulationConfig`] and mirrors its generation
//! surface, so it plugs into both the materialized and the
//! bounded-memory streaming pipeline. Its engine-side half,
//! [`ScenarioConfig`], is installed on `SystemConfig::scenario` by
//! [`ScenarioSpec::apply_to`]. Both halves derive class and region
//! assignments from the same pure per-user mixing functions here, keyed
//! on the *global* user id, so the trace generator and every engine
//! shard agree on who is who regardless of sharding.
//!
//! Scenario-off configurations take exactly the legacy code path: no
//! extra RNG draws, no extra metrics registered, byte-identical
//! `describe()` — the committed smoke golden is pinned by CI at every
//! thread count.
//!
//! # Examples
//!
//! ```
//! use adpf_core::scenario::{ScenarioPopulation, ScenarioSpec};
//! use adpf_core::{Simulator, SystemConfig};
//! use adpf_traces::PopulationConfig;
//!
//! let pop = ScenarioPopulation::new(
//!     PopulationConfig::small_test(7),
//!     ScenarioSpec::parse_preset("mixed").unwrap(),
//! );
//! let mut cfg = SystemConfig::prefetch_default(7);
//! pop.apply_to(&mut cfg);
//! let report = Simulator::new(cfg, &pop.generate()).run();
//! assert!(report.metered_bytes() > 0);
//! ```

mod population;
mod spec;
mod state;

pub use population::ScenarioPopulation;
pub use spec::{BurstSpec, ChurnSpec, ScenarioSpec};
pub(crate) use state::ScenarioState;

use adpf_desim::SimDuration;
use adpf_energy::{profiles, RadioProfile};

/// Milliseconds in one data-plan billing period (28 days, matching the
/// trace presets' four-week horizon).
const CAP_PERIOD_MS: u64 = 28 * 24 * 60 * 60 * 1_000;

const CLASS_SALT: u64 = 0x5ce0_a11c_c1a5_5e5d;
const REGION_SALT: u64 = 0x5ce0_a11c_4e61_0000;
/// Salt for churn arrival times.
const ARRIVAL_SALT: u64 = 0x5ce0_a11c_a441_4a1d;
/// Salt for churn departure times.
const DEPART_SALT: u64 = 0x5ce0_a11c_de9a_4470;
/// Salt for flash-crowd session streams.
const BURST_SALT: u64 = 0x5ce0_a11c_b045_7000;

/// A stable per-user coordinate in `[0, 1)`, derived from a seed, a
/// purpose salt, and the *global* user id. Pure and shard-independent:
/// the trace generator and every engine shard compute identical values.
fn unit_coord(seed: u64, salt: u64, user: u64) -> f64 {
    let mut z = seed
        ^ salt
        ^ user
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One device class of a mixed population: the radio its users carry,
/// whether their traffic is metered, their monthly data budget, and the
/// shape of their app sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceClass {
    /// Human-readable class name (shows up in per-class experiment rows).
    pub name: String,
    /// Radio profile bound to every user of this class.
    pub radio: RadioProfile,
    /// Whether this class's traffic counts toward `metered_bytes` and
    /// the data-plan cap (WiFi-heavy users are unmetered).
    pub metered: bool,
    /// Data budget per 28-day billing period, in bytes; `0` = uncapped.
    /// Once exhausted, prefetch syncs are blocked until the next period
    /// (realtime fallback still runs, and still meters).
    pub monthly_cap_bytes: u64,
    /// Relative population share (normalized against the other classes).
    pub weight: f64,
    /// Multiplier on session durations for users of this class (the
    /// "app-session shape": WiFi-heavy users linger, budget users
    /// snack). Trace side only: the engine never reads it.
    pub session_scale: f64,
}

impl DeviceClass {
    /// WiFi-heavy users: unmetered, uncapped, long sessions.
    pub(crate) fn wifi_heavy(weight: f64) -> Self {
        DeviceClass {
            name: "wifi-heavy".into(),
            radio: profiles::wifi(),
            metered: false,
            monthly_cap_bytes: 0,
            weight,
            session_scale: 1.25,
        }
    }

    /// LTE users on a generous plan: metered but effectively uncapped
    /// for ad traffic.
    pub(crate) fn lte(weight: f64) -> Self {
        DeviceClass {
            name: "lte".into(),
            radio: profiles::lte(),
            metered: true,
            monthly_cap_bytes: 0,
            weight,
            session_scale: 1.0,
        }
    }

    /// 3G users on a tight budget plan: metered, with a small monthly
    /// ad-traffic allowance that a prefetching client can exhaust, and
    /// short sessions.
    pub(crate) fn budget_3g(weight: f64, cap_bytes: u64) -> Self {
        DeviceClass {
            name: "3g-budget".into(),
            radio: profiles::umts_3g(),
            metered: true,
            monthly_cap_bytes: cap_bytes,
            weight,
            session_scale: 0.75,
        }
    }
}

/// What to do with a realtime fetch that arrives while its cell region
/// is over the per-window ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPolicy {
    /// Reject the fetch; the slot goes unfilled.
    Drop,
    /// Queue the fetch behind the backlog: it proceeds after a fixed
    /// queueing delay, charged as radio stall time and added to the
    /// ad's display latency.
    Defer,
}

/// AdCell-style per-region cell-capacity ceiling: each of
/// [`CellCapacity::REGIONS`] regions admits at most `fetches_per_window`
/// realtime fetches per [`CellCapacity::WINDOW`] across the whole
/// population; the overflow is dropped or deferred per `policy`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCapacity {
    /// Master switch for the ceiling.
    pub enabled: bool,
    /// Population-wide fetch budget per region per window. Each engine
    /// shard enforces its proportional share (scaled by the shard's
    /// user fraction), so the ceiling is thread-count invariant.
    pub fetches_per_window: u32,
    /// Overflow policy.
    pub policy: CellPolicy,
}

impl CellCapacity {
    /// Number of cell regions users are hashed into. The flash crowd's
    /// burst targets the first half of them on the trace side, so every
    /// ceiling shares the trace's regions.
    pub(crate) const REGIONS: u32 = 4;
    /// Length of one capacity-accounting window.
    pub(crate) const WINDOW: SimDuration = SimDuration::from_mins(1);
    /// Queueing delay charged per deferred fetch (Defer policy only).
    pub(crate) const QUEUE_DELAY: SimDuration = SimDuration::from_millis(500);

    /// The disabled ceiling (scenario default).
    pub fn disabled() -> Self {
        CellCapacity {
            enabled: false,
            fetches_per_window: 1_000,
            policy: CellPolicy::Drop,
        }
    }

    /// An enabled ceiling of `fetches_per_window` with the Drop policy.
    pub fn capped(fetches_per_window: u32) -> Self {
        CellCapacity {
            enabled: true,
            fetches_per_window,
            ..CellCapacity::disabled()
        }
    }
}

/// Engine-side scenario configuration, carried on `SystemConfig`.
///
/// `enabled: false` (the default) is the legacy path: the engine builds
/// no scenario state, registers no scenario metrics, and produces
/// bit-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master switch for the whole scenario layer.
    pub enabled: bool,
    /// Scenario name (appears in `describe()`, and therefore in the
    /// report hash).
    pub name: String,
    /// Seed for class/region assignment. Shared with the trace-side
    /// generator so session shaping and radio binding agree per user.
    pub assign_seed: u64,
    /// Device classes; empty means one uniform class using the config's
    /// base radio (metered, uncapped).
    pub classes: Vec<DeviceClass>,
    /// Per-region cell-capacity ceiling.
    pub cell: CellCapacity,
    /// Global id of this engine's first user. Set by shard derivation
    /// (`shard_configs`), like `rng_stream`; excluded from `describe()`
    /// so sharded and unsharded configs hash identically.
    pub user_offset: u32,
}

impl ScenarioConfig {
    /// The scenario-off default.
    pub(crate) fn disabled() -> Self {
        ScenarioConfig {
            enabled: false,
            name: String::new(),
            assign_seed: 0,
            classes: Vec::new(),
            cell: CellCapacity::disabled(),
            user_offset: 0,
        }
    }

    /// Validates scenario parameters; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        for c in &self.classes {
            if !c.weight.is_finite() || c.weight <= 0.0 {
                return Err(format!("class `{}` weight must be positive", c.name));
            }
        }
        if !self.classes.is_empty() && (!total.is_finite() || total <= 0.0) {
            return Err("class weights must sum to a positive value".into());
        }
        if self.cell.enabled && self.cell.fetches_per_window == 0 {
            return Err("cell.fetches_per_window must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::disabled()
    }
}

/// Weighted class assignment for a global user id. Pure: every shard
/// and the trace generator agree. Returns 0 when `classes` is empty.
fn class_index(seed: u64, user: u64, classes: &[DeviceClass]) -> usize {
    if classes.len() <= 1 {
        return 0;
    }
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    let x = unit_coord(seed, CLASS_SALT, user) * total;
    let mut acc = 0.0;
    for (i, c) in classes.iter().enumerate() {
        acc += c.weight;
        if x < acc {
            return i;
        }
    }
    classes.len() - 1
}

/// Cell-region assignment for a global user id.
fn region_index(seed: u64, user: u64, regions: u32) -> u32 {
    let n = regions.max(1);
    let r = (unit_coord(seed, REGION_SALT, user) * n as f64) as u32;
    r.min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    /// The engine-side half of the canonical mix.
    fn mixed(assign_seed: u64) -> ScenarioConfig {
        let mut cfg = SystemConfig::prefetch_default(1);
        ScenarioSpec::mixed().apply_to(&mut cfg, assign_seed);
        cfg.scenario
    }

    #[test]
    fn unit_coord_is_stable_and_in_range() {
        let a = unit_coord(42, CLASS_SALT, 7);
        let b = unit_coord(42, CLASS_SALT, 7);
        assert_eq!(a, b);
        for u in 0..1_000u64 {
            let x = unit_coord(42, REGION_SALT, u);
            assert!((0.0..1.0).contains(&x), "coord {x} out of range");
        }
        // Different salts decorrelate the coordinates.
        assert_ne!(
            unit_coord(42, CLASS_SALT, 7),
            unit_coord(42, REGION_SALT, 7)
        );
    }

    #[test]
    fn class_assignment_tracks_weights() {
        let sc = mixed(99);
        let mut counts = [0usize; 3];
        let n = 10_000u64;
        for u in 0..n {
            counts[class_index(sc.assign_seed, u, &sc.classes)] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((shares[0] - 0.40).abs() < 0.03, "wifi share {}", shares[0]);
        assert!((shares[1] - 0.35).abs() < 0.03, "lte share {}", shares[1]);
        assert!((shares[2] - 0.25).abs() < 0.03, "3g share {}", shares[2]);
    }

    #[test]
    fn empty_classes_fall_back_to_class_zero() {
        let sc = ScenarioConfig {
            enabled: true,
            name: "uniform".into(),
            ..ScenarioConfig::disabled()
        };
        for u in 0..100u64 {
            assert_eq!(class_index(sc.assign_seed, u, &sc.classes), 0);
        }
        sc.validate().expect("uniform scenario validates");
    }

    #[test]
    fn region_assignment_covers_all_regions() {
        let mut seen = [false; 8];
        for u in 0..1_000u64 {
            seen[region_index(5, u, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 regions populated");
        assert_eq!(region_index(5, 3, 1), 0);
        assert_eq!(region_index(5, 3, 0), 0); // clamped, no panic
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut sc = mixed(1);
        sc.classes[0].weight = -1.0;
        assert!(sc.validate().is_err());

        let mut sc = mixed(1);
        sc.cell = CellCapacity::capped(0);
        assert!(sc.validate().is_err());

        // Disabled scenarios validate unconditionally.
        let mut off = ScenarioConfig::disabled();
        off.classes.push(DeviceClass::wifi_heavy(-5.0));
        off.validate().expect("disabled scenario skips validation");
    }
}
