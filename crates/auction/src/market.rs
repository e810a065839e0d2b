//! Marketplace dynamics: campaign types, pacing controllers, price
//! floors, and the first-price/second-price switch.
//!
//! The base exchange is *static*: every campaign bids its fixed lognormal
//! distribution until the budget runs dry, which is exactly the model the
//! paper measured its "negligible revenue loss" claim against. Real
//! marketplaces react — campaigns pace spend against a budget schedule,
//! converge bids toward a target cost-per-click, and publishers impose
//! price floors that interact with the advance-sale risk discount. This
//! module adds that reactive layer as an *opt-in* configuration: when
//! [`MarketplaceConfig::enabled`] is `false` the exchange takes the legacy
//! code path bit for bit (no extra RNG draws, multiplier `1.0`, floors
//! `0.0`, second-price), so every golden report hash recorded against the
//! static exchange stays valid.
//!
//! # Determinism
//!
//! Everything here is deterministic by construction:
//!
//! - Campaign-type assignment ([`MarketplaceConfig::assign_types`]) is a
//!   pure function of the campaign catalog order — never of RNG state —
//!   so every shard of a sharded run assigns identical types.
//! - The [`PacingController`] is a proportional controller over observed
//!   spend, with no randomness and no wall-clock input; its trajectory is
//!   a pure function of the auction stream that fed it.
//! - Pacing ticks ride the simulation event queue, so the controller
//!   update points are simulated times, identical at any thread count.

use adpf_desim::SimDuration;

use crate::campaign::Campaign;
use crate::exchange::SlotKind;

/// How the clearing price of a won auction is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingRule {
    /// The winner pays its own bid.
    FirstPrice,
    /// The winner pays the highest losing bid (or the floor). The
    /// exchange's historical behaviour and the default.
    SecondPrice,
}

impl PricingRule {
    /// Resolves a CLI pricing-rule name (`first`, `second`). The
    /// canonical name set shared by the `simulate` and `serve` binaries.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "first" => PricingRule::FirstPrice,
            "second" => PricingRule::SecondPrice,
            other => return Err(format!("unknown pricing rule `{other}`")),
        })
    }

    /// Stable label for report headers and tables.
    pub fn label(&self) -> &'static str {
        match self {
            PricingRule::FirstPrice => "first",
            PricingRule::SecondPrice => "second",
        }
    }
}

/// Per-slot-kind price floors, a hard lower bound on clearing prices.
///
/// Floors bind *after* the advance risk discount: a publisher quoting a
/// floor will not accept less however the price was derived. Bids below
/// the floor are excluded from the auction entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceFloors {
    /// Floor for real-time (display-now) slots.
    pub realtime: f64,
    /// Floor for advance (prefetched) slots.
    pub advance: f64,
}

impl PriceFloors {
    /// No floors: every price down to the exchange reserve clears.
    pub(crate) fn none() -> Self {
        Self {
            realtime: 0.0,
            advance: 0.0,
        }
    }

    /// The same floor for both slot kinds.
    pub fn uniform(floor: f64) -> Self {
        Self {
            realtime: floor,
            advance: floor,
        }
    }

    /// The floor that applies to `kind`.
    pub(crate) fn for_kind(&self, kind: SlotKind) -> f64 {
        match kind {
            SlotKind::RealTime => self.realtime,
            SlotKind::Advance => self.advance,
        }
    }

    /// Whether any floor is set.
    pub fn any(&self) -> bool {
        self.realtime > 0.0 || self.advance > 0.0
    }

    /// Floors must be finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        for (name, f) in [("realtime", self.realtime), ("advance", self.advance)] {
            if !(f.is_finite() && f >= 0.0) {
                return Err(format!("{name} floor {f} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// How a campaign reacts to the marketplace (the marrakesh family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignType {
    /// Bids its static distribution until the budget runs out — the
    /// legacy campaign and the behaviour of every campaign when the
    /// marketplace layer is off.
    FixedCpc,
    /// Adjusts a bid multiplier so the *average clearing price paid*
    /// converges to `target_price`.
    TargetCpc {
        /// Average price per impression the campaign is willing to pay.
        target_price: f64,
    },
    /// Keeps its bid fixed but throttles auction participation so spend
    /// tracks the budget schedule.
    PacedFixedCpc,
    /// Scales its bid by a paced multiplier so spend tracks the budget
    /// schedule — the classic budget-pacing campaign.
    PacedBudget,
}

impl CampaignType {
    /// Stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignType::FixedCpc => "fixed-cpc",
            CampaignType::TargetCpc { .. } => "target-cpc",
            CampaignType::PacedFixedCpc => "paced-fixed-cpc",
            CampaignType::PacedBudget => "paced-budget",
        }
    }
}

/// A deterministic proportional pacing controller.
///
/// Each update compares a scheduled quantity against its observed value
/// and scales the controlled multiplier by the relative error:
///
/// ```text
/// err   = clamp((scheduled - actual) / scheduled, -1, 1)
/// value = clamp(value * (1 + gain * err), min, max)
/// ```
///
/// Behind schedule (`actual < scheduled`) raises the multiplier, ahead of
/// schedule lowers it. The error clamp keeps one pathological tick (e.g.
/// the first tick after a burst) from collapsing or exploding the
/// multiplier; the value clamp is a sanity bound (the marketplace's is
/// [`MarketplaceConfig::MIN_MULTIPLIER`] to
/// [`MarketplaceConfig::MAX_MULTIPLIER`]). The controller holds no other
/// state, so its trajectory is a pure function of the update sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacingController {
    gain: f64,
    min: f64,
    max: f64,
    value: f64,
}

impl PacingController {
    /// A controller starting at multiplier `1.0` (clamped into range).
    pub fn new(gain: f64, min: f64, max: f64) -> Self {
        assert!(
            gain > 0.0 && gain.is_finite(),
            "gain {gain} must be positive"
        );
        assert!(
            min > 0.0 && min <= max && max.is_finite(),
            "clamp [{min}, {max}] must satisfy 0 < min <= max < inf"
        );
        Self {
            gain,
            min,
            max,
            value: 1.0f64.clamp(min, max),
        }
    }

    /// Current multiplier, always within `[min, max]`.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// One proportional step toward `actual == scheduled`; returns `true`
    /// when the step hit a clamp. A non-positive schedule carries no
    /// information and leaves the multiplier untouched.
    pub fn adjust(&mut self, scheduled: f64, actual: f64) -> bool {
        let informative = scheduled.is_finite() && scheduled > 0.0 && actual.is_finite();
        if !informative {
            return false;
        }
        let err = ((scheduled - actual) / scheduled).clamp(-1.0, 1.0);
        let raw = self.value * (1.0 + self.gain * err);
        self.value = raw.clamp(self.min, self.max);
        self.value != raw
    }
}

/// Configuration of the reactive marketplace layer.
///
/// `enabled: false` (the default everywhere) is the static exchange the
/// paper measured: no floors, second-price, no pacing, and — critically —
/// the exact legacy RNG draw order, so reports hash identically to
/// pre-marketplace builds.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketplaceConfig {
    /// Master switch. Off takes the legacy exchange path bit for bit.
    pub enabled: bool,
    /// Stable regime label for report headers ("off" / "static" /
    /// "paced").
    pub name: &'static str,
    /// Whether campaigns get reactive types ([`Self::assign_types`]); a
    /// `false` here with `enabled: true` is the "static" regime — floors
    /// and pricing apply, but every campaign stays [`CampaignType::FixedCpc`].
    pub paced: bool,
    /// Clearing-price rule.
    pub pricing: PricingRule,
    /// Per-slot-kind price floors.
    pub floors: PriceFloors,
}

impl MarketplaceConfig {
    /// Simulated time between pacing-controller updates.
    pub const PACING_INTERVAL: SimDuration = SimDuration::from_hours(1);
    /// Proportional gain of every pacing controller.
    pub(crate) const GAIN: f64 = 0.5;
    /// Lower clamp on paced multipliers.
    pub const MIN_MULTIPLIER: f64 = 0.05;
    /// Upper clamp on paced multipliers.
    pub const MAX_MULTIPLIER: f64 = 20.0;
    /// Target-CPC campaigns aim for this fraction of their own mean bid
    /// as the average clearing price.
    const TARGET_CPC_RATIO: f64 = 0.6;

    /// Resolves a CLI regime name (`off`, `static`, `paced`). The
    /// canonical name set shared by the `simulate` and `serve` binaries.
    pub fn parse_regime(name: &str) -> Result<Self, String> {
        Ok(match name {
            "off" => MarketplaceConfig::disabled(),
            "static" => MarketplaceConfig::static_exchange(),
            "paced" => MarketplaceConfig::paced(),
            other => return Err(format!("unknown marketplace regime `{other}`")),
        })
    }

    /// The static exchange: marketplace layer off (the default).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            name: "off",
            paced: false,
            pricing: PricingRule::SecondPrice,
            floors: PriceFloors::none(),
        }
    }

    /// Marketplace on, campaigns static: floors and the pricing rule
    /// apply, no pacing loops run.
    pub(crate) fn static_exchange() -> Self {
        Self {
            enabled: true,
            name: "static",
            ..Self::disabled()
        }
    }

    /// The full reactive regime: campaigns cycle through the reactive
    /// types and pacing ticks run every [`Self::PACING_INTERVAL`].
    pub fn paced() -> Self {
        Self {
            enabled: true,
            name: "paced",
            paced: true,
            ..Self::disabled()
        }
    }

    /// Assigns a [`CampaignType`] to each campaign of a catalog.
    ///
    /// The assignment is a pure function of catalog order (round-robin
    /// over the reactive family, target prices derived from each
    /// campaign's own mean bid), never of RNG state — every shard of a
    /// sharded run computes the identical vector, which is what lets the
    /// assignment live in the shared `ShardContext`.
    pub fn assign_types(&self, campaigns: &[Campaign]) -> Vec<CampaignType> {
        if !(self.enabled && self.paced) {
            return vec![CampaignType::FixedCpc; campaigns.len()];
        }
        campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| match i % 4 {
                0 => CampaignType::PacedBudget,
                1 => CampaignType::FixedCpc,
                2 => CampaignType::PacedFixedCpc,
                _ => CampaignType::TargetCpc {
                    target_price: Self::TARGET_CPC_RATIO * c.bid.mean_price,
                },
            })
            .collect()
    }
}

impl Default for MarketplaceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignCatalog;

    #[test]
    fn controller_moves_toward_schedule_and_respects_clamps() {
        let mut c = PacingController::new(0.5, 0.1, 4.0);
        assert_eq!(c.value(), 1.0);
        // Behind schedule: multiplier rises.
        c.adjust(10.0, 5.0);
        assert!(
            c.value() > 1.0,
            "behind schedule must raise, got {}",
            c.value()
        );
        // Ahead of schedule: multiplier falls.
        let before = c.value();
        c.adjust(10.0, 20.0);
        assert!(c.value() < before);
        // Saturate upward: clamps and reports it.
        let mut hi = PacingController::new(2.0, 0.1, 1.5);
        let mut clamped = false;
        for _ in 0..16 {
            clamped |= hi.adjust(1.0, 0.0);
        }
        assert!(clamped);
        assert_eq!(hi.value(), 1.5);
        // Saturate downward.
        let mut lo = PacingController::new(2.0, 0.25, 4.0);
        for _ in 0..16 {
            lo.adjust(1.0, 1e9);
        }
        assert_eq!(lo.value(), 0.25);
    }

    #[test]
    fn controller_ignores_empty_schedules() {
        let mut c = PacingController::new(0.5, 0.1, 4.0);
        assert!(!c.adjust(0.0, 5.0));
        assert!(!c.adjust(-1.0, 5.0));
        assert!(!c.adjust(2.0, f64::NAN));
        assert_eq!(c.value(), 1.0);
    }

    #[test]
    fn controller_error_clamp_bounds_one_step() {
        // Massive overspend in one tick halves at most (gain 0.5): the
        // relative error saturates at -1 before it can zero the value.
        let mut c = PacingController::new(0.5, 0.001, 10.0);
        c.adjust(1.0, 1e12);
        assert_eq!(c.value(), 0.5);
    }

    #[test]
    fn assignment_is_deterministic_and_cycles_the_family() {
        let campaigns = CampaignCatalog::synthetic(9, 7).into_campaigns();
        let mc = MarketplaceConfig::paced();
        let a = mc.assign_types(&campaigns);
        let b = mc.assign_types(&campaigns);
        assert_eq!(a, b, "assignment must be a pure function of the catalog");
        assert_eq!(a.len(), 9);
        assert_eq!(a[0], CampaignType::PacedBudget);
        assert_eq!(a[1], CampaignType::FixedCpc);
        assert_eq!(a[2], CampaignType::PacedFixedCpc);
        assert!(matches!(a[3], CampaignType::TargetCpc { .. }));
        assert_eq!(a[4], CampaignType::PacedBudget);
        // Target prices derive from each campaign's own mean bid.
        if let CampaignType::TargetCpc { target_price } = a[3] {
            assert!((target_price - 0.6 * campaigns[3].bid.mean_price).abs() < 1e-12);
        }
    }

    #[test]
    fn static_and_off_regimes_assign_only_fixed_cpc() {
        let campaigns = CampaignCatalog::synthetic(5, 3).into_campaigns();
        for mc in [
            MarketplaceConfig::disabled(),
            MarketplaceConfig::static_exchange(),
        ] {
            let types = mc.assign_types(&campaigns);
            assert!(types.iter().all(|t| *t == CampaignType::FixedCpc));
        }
    }

    #[test]
    fn config_validation_catches_degenerate_values() {
        assert_eq!(MarketplaceConfig::disabled().floors.validate(), Ok(()));
        assert_eq!(MarketplaceConfig::paced().floors.validate(), Ok(()));

        let mut c = MarketplaceConfig::static_exchange();
        c.floors.realtime = -0.1;
        assert!(c.floors.validate().is_err());
    }

    #[test]
    fn floors_dispatch_by_slot_kind() {
        let f = PriceFloors {
            realtime: 0.002,
            advance: 0.001,
        };
        assert_eq!(f.for_kind(SlotKind::RealTime), 0.002);
        assert_eq!(f.for_kind(SlotKind::Advance), 0.001);
        assert!(f.any());
        assert!(!PriceFloors::none().any());
        assert_eq!(PriceFloors::uniform(0.003).advance, 0.003);
    }
}
