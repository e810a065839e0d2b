//! System configuration.

use adpf_auction::MarketplaceConfig;
use adpf_desim::SimDuration;
use adpf_energy::{profiles, RadioProfile};
use adpf_netem::NetemConfig;
use adpf_overbooking::PlannerKind;
use adpf_prediction::PredictorKind;

use crate::scenario::{CellCapacity, ScenarioConfig};

/// How ads reach clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Status quo: every slot fetches its ad over the radio at display
    /// time, sold through a real-time auction.
    RealTime,
    /// The paper's scheme: predicted slots are pre-sold, overbooked across
    /// clients, and delivered in batched syncs.
    Prefetch,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Delivery mode under test.
    pub mode: DeliveryMode,
    /// Per-client demand predictor family (Prefetch mode only).
    pub predictor: PredictorKind,
    /// Replication policy (Prefetch mode only).
    pub planner: PlannerKind,
    /// Client sync period (Prefetch mode only).
    pub prefetch_interval: SimDuration,
    /// Target probability that a sold ad is displayed before its deadline.
    pub sla_target: f64,
    /// Display deadline attached to advance-sold ads.
    pub deadline: SimDuration,
    /// Upper bound on replicas per ad.
    pub max_replicas: usize,
    /// Final portion of an ad's lifetime during which replica copies may
    /// display. Replicas are insurance against the origin client failing;
    /// holding them back until late keeps them from duplicating ads the
    /// origin already showed (whose cancellations are still in flight).
    pub replica_window: SimDuration,
    /// How many candidate clients the planner examines per ad.
    pub candidate_pool: usize,
    /// Dispersion factor in `(0, 1]` applied to expected session counts
    /// when estimating display probabilities. Real demand is overdispersed
    /// day to day (users skip whole days), so availability is discounted
    /// below the Poisson-session estimate.
    pub availability_dispersion: f64,
    /// In-app ad refresh interval (drives slot derivation).
    pub ad_refresh: SimDuration,
    /// Radio technology profile.
    pub radio: RadioProfile,
    /// Downlink bytes per ad creative.
    pub ad_bytes_down: u64,
    /// Uplink bytes per ad request/report.
    pub ad_bytes_up: u64,
    /// Defer syncs whose only payload is impression reports until the
    /// oldest pending report is one prefetch interval old (or a transfer
    /// happens anyway). Reports are tiny; what costs energy is the radio
    /// wakeup, so batching them into the next natural transfer saves a
    /// full tail per report-only sync. Billing tolerates the delay: ads
    /// are billed by display timestamp and the expiry sweep waits a grace
    /// period of two intervals before declaring a violation.
    pub defer_report_syncs: bool,
    /// Piggyback a full sync (reports, deliveries, new sales) on each
    /// real-time fallback fetch: the radio is already awake, so the batch
    /// rides the same promotion and tail. This is the paper's key
    /// client-side optimization — typically one radio wakeup per app
    /// session instead of one per ad.
    pub piggyback_on_fallback: bool,
    /// Multiplier applied to the predicted slot count when deciding how
    /// many advance slots to sell. Values above 1 over-provision
    /// deliberately and lean on overbooking + cancellation to contain the
    /// cost.
    pub sell_margin: f64,
    /// Number of advertiser campaigns in the exchange.
    pub campaigns: u32,
    /// Fraction of campaigns that target a specific app category.
    /// Contextual campaigns cannot bid on advance slots (the future app is
    /// unknown), so raising this erodes advance clearing prices — the
    /// context cost of prefetching. The paper's model corresponds to 0.
    pub contextual_fraction: f64,
    /// Bid premium contextual campaigns pay for matching impressions.
    pub contextual_premium: f64,
    /// Price multiplier applied to advance sales (1.0 = no risk discount).
    pub advance_discount: f64,
    /// Probability a scheduled periodic sync is missed (device off,
    /// no coverage, radio-off hours). Piggybacked syncs are unaffected —
    /// the user is demonstrably online when a fallback fetch happens.
    /// Failure-injection knob; `0.0` disables.
    pub sync_dropout: f64,
    /// Network-condition emulation: per-client link-state machines,
    /// outage windows, and the client retry policy. Disabled by default —
    /// the ideal always-on network the paper assumes. When disabled the
    /// simulator takes exactly the legacy code path (no extra RNG draws,
    /// no extra energy events), so reports are bit-identical to
    /// netem-less builds.
    pub netem: NetemConfig,
    /// Reactive marketplace layer: campaign pacing controllers, price
    /// floors, and the pricing rule. Disabled by default — the static
    /// exchange the paper measured. When disabled the exchange takes
    /// exactly the legacy code path (no extra RNG draws, multiplier 1.0,
    /// floors 0.0, second-price), so reports are bit-identical to
    /// pre-marketplace builds.
    pub marketplace: MarketplaceConfig,
    /// Scenario layer: heterogeneous device classes with data-plan caps,
    /// per-region cell-capacity ceilings, and user-cost accounting
    /// (metered bytes, wasted prefetch, display latency). Disabled by
    /// default — the homogeneous population the paper assumes. When
    /// disabled the engine takes exactly the legacy code path (no extra
    /// state, no extra metrics), so reports are bit-identical to
    /// pre-scenario builds.
    pub scenario: ScenarioConfig,
    /// Master seed (exchange randomness, candidate sampling).
    pub seed: u64,
    /// RNG stream selector for sharded runs. Stream `0` (the default)
    /// reproduces the unsharded seed derivation bit-for-bit; sharded runs
    /// give shard `i` stream `i`, so every `(seed, shard)` pair draws
    /// independent bid and fault randomness while the campaign catalog —
    /// built from `seed` alone — stays identical across shards.
    pub rng_stream: u64,
    /// Fraction of every campaign budget available to this run, in
    /// `(0, 1]`. Sharded runs set it to the shard's share of the
    /// population so the shards' combined spending power never exceeds
    /// the global budgets. `1.0` (the default) is the unsharded no-op.
    pub budget_fraction: f64,
}

impl SystemConfig {
    /// The status-quo configuration: real-time delivery over 3G.
    pub fn realtime(seed: u64) -> Self {
        Self {
            mode: DeliveryMode::RealTime,
            predictor: PredictorKind::Zero,
            planner: PlannerKind::NoReplication,
            prefetch_interval: SimDuration::from_hours(2),
            sla_target: 0.95,
            deadline: SimDuration::from_hours(12),
            max_replicas: 4,
            replica_window: SimDuration::from_mins(45),
            candidate_pool: 64,
            availability_dispersion: 0.5,
            ad_refresh: SimDuration::from_secs(30),
            radio: profiles::umts_3g(),
            ad_bytes_down: 4 * 1024,
            ad_bytes_up: 512,
            defer_report_syncs: true,
            piggyback_on_fallback: true,
            sell_margin: 1.0,
            campaigns: 50,
            contextual_fraction: 0.0,
            contextual_premium: 1.5,
            advance_discount: 1.0,
            sync_dropout: 0.0,
            netem: NetemConfig::disabled(),
            marketplace: MarketplaceConfig::disabled(),
            scenario: ScenarioConfig::disabled(),
            seed,
            rng_stream: 0,
            budget_fraction: 1.0,
        }
    }

    /// The paper's default prefetching configuration: 2-hour syncs,
    /// 12-hour ad deadlines, the session-aware predictor, and greedy
    /// overbooking at a 95% SLA target with a 45-minute replica window.
    pub fn prefetch_default(seed: u64) -> Self {
        Self {
            mode: DeliveryMode::Prefetch,
            predictor: PredictorKind::SessionAware,
            planner: PlannerKind::Greedy,
            ..Self::realtime(seed)
        }
    }

    /// Validates invariants the simulator relies on.
    ///
    /// Returns a human-readable reason when the configuration is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.prefetch_interval.is_zero() {
            return Err("prefetch_interval must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.sla_target) {
            return Err(format!("sla_target {} outside [0, 1]", self.sla_target));
        }
        if self.deadline.is_zero() {
            return Err("deadline must be positive".into());
        }
        if self.max_replicas == 0 {
            return Err("max_replicas must be at least 1".into());
        }
        if self.mode == DeliveryMode::Prefetch && self.replica_window.is_zero() {
            return Err("replica_window must be positive: replicas could never display".into());
        }
        if self.candidate_pool == 0 {
            return Err("candidate_pool must be at least 1".into());
        }
        if !(self.availability_dispersion > 0.0 && self.availability_dispersion <= 1.0) {
            return Err(format!(
                "availability_dispersion {} outside (0, 1]",
                self.availability_dispersion
            ));
        }
        if !(self.sell_margin.is_finite() && self.sell_margin > 0.0) {
            return Err(format!("sell_margin {} must be positive", self.sell_margin));
        }
        if !(0.0..=1.0).contains(&self.contextual_fraction) {
            return Err(format!(
                "contextual_fraction {} outside [0, 1]",
                self.contextual_fraction
            ));
        }
        if self.advance_discount <= 0.0 || self.advance_discount > 1.0 {
            return Err(format!(
                "advance_discount {} outside (0, 1]",
                self.advance_discount
            ));
        }
        if !(0.0..=1.0).contains(&self.sync_dropout) {
            return Err(format!("sync_dropout {} outside [0, 1]", self.sync_dropout));
        }
        self.netem.validate().map_err(|e| format!("netem: {e}"))?;
        self.marketplace
            .floors
            .validate()
            .map_err(|e| format!("marketplace: {e}"))?;
        self.scenario
            .validate()
            .map_err(|e| format!("scenario: {e}"))?;
        if !(self.budget_fraction > 0.0 && self.budget_fraction <= 1.0) {
            return Err(format!(
                "budget_fraction {} outside (0, 1]",
                self.budget_fraction
            ));
        }
        if self.mode == DeliveryMode::Prefetch && self.deadline < self.prefetch_interval {
            return Err(format!(
                "deadline {} shorter than prefetch interval {}: replicas could never arrive",
                self.deadline, self.prefetch_interval
            ));
        }
        Ok(())
    }

    /// One-line description for report headers.
    pub(crate) fn describe(&self) -> String {
        let mut d = match self.mode {
            DeliveryMode::RealTime => format!("realtime radio={}", self.radio.name),
            DeliveryMode::Prefetch => format!(
                "prefetch interval={} deadline={} predictor={} planner={} sla={} radio={}",
                self.prefetch_interval,
                self.deadline,
                self.predictor.label(),
                self.planner.label(),
                self.sla_target,
                self.radio.name
            ),
        };
        // Netem-off descriptions stay byte-identical to the pre-netem
        // format so existing golden report hashes remain valid.
        if self.netem.enabled {
            d.push_str(&format!(
                " netem={} retries={}",
                self.netem.name, self.netem.retry.max_retries
            ));
        }
        // Same pattern for the marketplace: the off header is byte-
        // identical to pre-marketplace builds, so golden hashes hold.
        if self.marketplace.enabled {
            d.push_str(&format!(
                " marketplace={} pricing={}",
                self.marketplace.name,
                self.marketplace.pricing.label()
            ));
            if self.marketplace.floors.any() {
                d.push_str(&format!(
                    " floors={}/{}",
                    self.marketplace.floors.realtime, self.marketplace.floors.advance
                ));
            }
        }
        // Same pattern again for the scenario layer: append-only when
        // enabled, so scenario-off golden hashes hold. The shard-derived
        // `user_offset` is deliberately excluded — all shards of one run
        // must share the same description.
        if self.scenario.enabled {
            d.push_str(&format!(
                " scenario={} classes={}",
                self.scenario.name,
                self.scenario.classes.len()
            ));
            if self.scenario.cell.enabled {
                d.push_str(&format!(
                    " cell={}x{}/{}",
                    CellCapacity::REGIONS,
                    self.scenario.cell.fetches_per_window,
                    CellCapacity::WINDOW
                ));
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(SystemConfig::realtime(1).validate(), Ok(()));
        assert_eq!(SystemConfig::prefetch_default(1).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut c = SystemConfig::prefetch_default(1);
        c.sla_target = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::prefetch_default(1);
        c.prefetch_interval = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::prefetch_default(1);
        c.deadline = SimDuration::from_mins(30);
        assert!(c.validate().is_err(), "deadline < interval must fail");

        let mut c = SystemConfig::prefetch_default(1);
        c.max_replicas = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::prefetch_default(1);
        c.advance_discount = 0.0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::prefetch_default(1);
        c.budget_fraction = 0.0;
        assert!(c.validate().is_err());
        c.budget_fraction = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn defaults_select_the_unsharded_streams() {
        let c = SystemConfig::prefetch_default(1);
        assert_eq!(c.rng_stream, 0);
        assert_eq!(c.budget_fraction, 1.0);
        // Shard-specific knobs must not leak into report headers: all
        // shards of one run share the same config description.
        let mut sharded = c.clone();
        sharded.rng_stream = 3;
        sharded.budget_fraction = 0.25;
        assert_eq!(sharded.describe(), c.describe());
    }

    #[test]
    fn netem_config_feeds_validation_and_describe() {
        let mut c = SystemConfig::prefetch_default(1);
        let plain = c.describe();
        assert!(!plain.contains("netem"), "netem-off header stays legacy");

        c.netem = NetemConfig::flaky_cellular();
        assert_eq!(c.validate(), Ok(()));
        let d = c.describe();
        assert!(d.contains("netem=flaky"), "header: {d}");
        assert!(d.starts_with(&plain), "netem only appends: {d}");

        c.netem.profiles[0].failure_prob = 2.0;
        assert!(c.validate().is_err(), "invalid netem must fail validation");
    }

    #[test]
    fn marketplace_config_feeds_validation_and_describe() {
        use adpf_auction::{PriceFloors, PricingRule};
        let mut c = SystemConfig::prefetch_default(1);
        let plain = c.describe();
        assert!(
            !plain.contains("marketplace"),
            "marketplace-off header stays legacy"
        );

        c.marketplace = MarketplaceConfig::paced();
        c.marketplace.pricing = PricingRule::FirstPrice;
        c.marketplace.floors = PriceFloors::uniform(0.0005);
        assert_eq!(c.validate(), Ok(()));
        let d = c.describe();
        assert!(d.contains("marketplace=paced"), "header: {d}");
        assert!(d.contains("pricing=first"), "header: {d}");
        assert!(d.contains("floors=0.0005/0.0005"), "header: {d}");
        assert!(d.starts_with(&plain), "marketplace only appends: {d}");

        c.marketplace.floors.advance = -1.0;
        assert!(
            c.validate().is_err(),
            "invalid marketplace must fail validation"
        );
    }

    #[test]
    fn scenario_config_feeds_validation_and_describe() {
        use crate::scenario::ScenarioSpec;

        let mut c = SystemConfig::prefetch_default(1);
        let plain = c.describe();
        assert!(
            !plain.contains("scenario"),
            "scenario-off header stays legacy"
        );

        ScenarioSpec::mixed().apply_to(&mut c, 777);
        assert_eq!(c.validate(), Ok(()));
        let d = c.describe();
        assert!(d.contains("scenario=mixed classes=3"), "header: {d}");
        assert!(d.starts_with(&plain), "scenario only appends: {d}");

        // The shard-derived user offset must not leak into the header:
        // all shards of one run share one config description.
        let mut sharded = c.clone();
        sharded.scenario.user_offset = 120;
        assert_eq!(sharded.describe(), d);

        c.scenario.cell = CellCapacity::capped(100);
        assert!(c.describe().contains("cell=4x100"), "{}", c.describe());
        assert_eq!(c.validate(), Ok(()));

        c.scenario.classes[0].weight = f64::NAN;
        assert!(c.validate().is_err(), "invalid scenario must fail");
    }

    #[test]
    fn planner_kinds_build() {
        for (kind, label) in [
            (PlannerKind::Greedy, "greedy"),
            (PlannerKind::FixedK(3), "fixed-3"),
            (PlannerKind::NoReplication, "none"),
        ] {
            assert_eq!(kind.build(), kind);
            assert_eq!(PlannerKind::parse(&kind.label()), Ok(kind));
            assert_eq!(kind.label(), label);
        }
    }

    #[test]
    fn describe_mentions_key_knobs() {
        let d = SystemConfig::prefetch_default(1).describe();
        assert!(d.contains("prefetch"));
        assert!(d.contains("greedy"));
        assert!(SystemConfig::realtime(1).describe().contains("realtime"));
    }
}
