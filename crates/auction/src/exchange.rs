//! Sealed-bid second-price exchange.

use adpf_desim::SimTime;
use adpf_obs::MetricRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ahead::{BidSampler, Lane, Missed, SamplerRef};
use crate::campaign::{Campaign, CampaignId, PreparedBid};
use crate::market::{CampaignType, MarketplaceConfig, PacingController, PriceFloors, PricingRule};

/// Identifier of one sold ad (one paid impression commitment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdId(pub u64);

impl core::fmt::Display for AdId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ad{}", self.0)
    }
}

/// Whether a slot is sold at display time or ahead of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// The status quo: the client is displaying the ad right now.
    RealTime,
    /// The paper's scheme: the slot is *predicted* to occur before
    /// `deadline`; the buyer accepts delayed, uncertain display in
    /// exchange for a risk discount.
    Advance,
}

/// A slot offered to the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOffer {
    /// Auction time.
    pub at: SimTime,
    /// Latest acceptable display time (the ad's SLA deadline). Real-time
    /// slots use [`SimTime::MAX`] by convention — display is immediate.
    pub deadline: SimTime,
    /// Sale kind.
    pub kind: SlotKind,
    /// App category hosting the slot, when known. Real-time slots know
    /// their app; advance slots do not (the display app is in the
    /// future), which shuts contextual campaigns out of those auctions.
    pub category: Option<u8>,
}

impl SlotOffer {
    /// A real-time slot displaying right now in an app of `category`.
    pub fn realtime(at: SimTime, category: Option<u8>) -> Self {
        Self {
            at,
            deadline: SimTime::MAX,
            kind: SlotKind::RealTime,
            category,
        }
    }

    /// An advance slot sold against predicted demand (no app context).
    pub fn advance(at: SimTime, deadline: SimTime) -> Self {
        Self {
            at,
            deadline,
            kind: SlotKind::Advance,
            category: None,
        }
    }
}

/// The outcome of a won auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoldAd {
    /// Unique id of this impression commitment.
    pub id: AdId,
    /// Paying campaign.
    pub campaign: CampaignId,
    /// Clearing price (second price, discounted for advance sales).
    pub price: f64,
    /// The winning bid the price was derived from (after any pacing
    /// multiplier, before pricing rule, discount, and floor). Always
    /// an upper bound on `price`.
    pub winning_bid: f64,
    /// Display deadline.
    pub deadline: SimTime,
    /// When the ad was sold.
    pub sold_at: SimTime,
}

/// Per-campaign pacing state, index-aligned with the campaign catalog.
#[derive(Debug, Clone)]
struct Pacer {
    ty: CampaignType,
    ctl: PacingController,
    /// Budget at configuration time (after any shard scaling): the total
    /// the schedule spreads over the horizon.
    schedule_budget: f64,
    /// Net spend so far (debits minus refunds).
    spent: f64,
    /// Sum of clearing prices paid (target-CPC convergence input).
    price_sum: f64,
    wins: u64,
}

impl Pacer {
    fn pace(&self) -> Pace {
        match self.ty {
            CampaignType::PacedBudget | CampaignType::TargetCpc { .. } => {
                Pace::Scale(self.ctl.value())
            }
            // Pace by throttling participation, bid untouched.
            CampaignType::PacedFixedCpc => Pace::Throttle(self.ctl.value().min(1.0)),
            CampaignType::FixedCpc => Pace::Scale(1.0),
        }
    }
}

/// Campaign `i`'s pace: `1.0` for a campaign without a pacer.
fn pace_of(pacers: &[Option<Pacer>], i: usize) -> Pace {
    pacers
        .get(i)
        .and_then(Option::as_ref)
        .map_or(Pace::Scale(1.0), Pacer::pace)
}

/// How pacing treats one campaign's bid in an auction: what
/// [`Gates::pace`] answers, from the live pacers or from a lane's
/// snapshot of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Pace {
    /// The bid is scaled by this multiplier.
    Scale(f64),
    /// The campaign takes part with this probability, bid untouched.
    Throttle(f64),
}

impl Pace {
    /// The bid multiplier, or `None` when the throttle draw leaves the
    /// campaign out, counted in `skips`. Only a throttle below 1 draws.
    #[inline]
    pub(crate) fn apply(self, rng: &mut StdRng, skips: &mut u64) -> Option<f64> {
        match self {
            Pace::Scale(m) => Some(m),
            Pace::Throttle(t) => {
                if t < 1.0 && rng.gen::<f64>() >= t {
                    *skips += 1;
                    return None;
                }
                Some(1.0)
            }
        }
    }

    /// Whether [`Pace::apply`] answers `Some(1.0)` without a draw: the
    /// campaign bids as if it had no pacer.
    pub(crate) fn is_unit(self) -> bool {
        match self {
            Pace::Scale(m) => m == 1.0,
            Pace::Throttle(t) => t >= 1.0 || t.is_nan(),
        }
    }

    /// What the pace multiplies a bid by when the campaign takes part.
    pub(crate) fn scale(self) -> f64 {
        match self {
            Pace::Scale(m) => m,
            Pace::Throttle(_) => 1.0,
        }
    }
}

/// A sealed-bid second-price ad exchange.
///
/// Budgets are debited at sale time and refunded on SLA expiration, which
/// keeps campaign pacing honest when ads are sold hours ahead of display.
#[derive(Debug)]
pub struct Exchange {
    campaigns: Vec<Campaign>,
    /// Whether every campaign's id equals its index in `campaigns`.
    ids_are_positions: bool,
    /// Per-campaign [`PreparedBid`]s, index-aligned with `campaigns`.
    /// Bid models are immutable after construction (only budgets move),
    /// so these never need refreshing.
    prepared: Vec<PreparedBid>,
    rng: StdRng,
    /// Banked second variate of the polar normal sampler, threaded
    /// through every bid draw of this exchange's stream.
    spare_normal: Option<f64>,
    next_ad: u64,
    /// Minimum clearing price; slots failing it go unfilled.
    pub reserve_price: f64,
    /// Multiplier applied to the clearing price of advance sales
    /// (`1.0` = no discount; `0.95` = buyers demand 5% off for display
    /// uncertainty).
    pub advance_discount: f64,
    auctions_run: u64,
    auctions_filled: u64,
    /// Clearing-price rule. [`PricingRule::SecondPrice`] is the legacy
    /// behaviour and the default.
    pricing: PricingRule,
    /// Per-slot-kind price floors; zero (the default) is the legacy
    /// reserve-only path.
    floors: PriceFloors,
    /// Pacing state per campaign (`None` for fixed-CPC entries). Empty
    /// unless a paced marketplace was configured — the off path never
    /// touches it.
    pacers: Vec<Option<Pacer>>,
    floor_blocked: u64,
    throttle_skips: u64,
    pacing_ticks: u64,
    pacing_adjustments: u64,
    pacing_clamps: u64,
    /// The worker's sampler, when auctions may be sampled ahead (see
    /// [`Exchange::sample_ahead_on`]); dropped for good once it is gone
    /// or the marketplace cannot be sampled ahead.
    sampler: Option<SamplerRef>,
    /// This exchange's lane on it, once an auction has registered one.
    lane: Option<Lane>,
    ahead_auctions: u64,
    ahead_fallbacks: u64,
    ahead_waits: u64,
    ahead_reanchors: u64,
}

impl Exchange {
    /// Default risk discount on advance-sold slots.
    pub(crate) const DEFAULT_ADVANCE_DISCOUNT: f64 = 0.95;

    /// Creates an exchange over the given campaigns.
    pub fn new(campaigns: Vec<Campaign>, seed: u64) -> Self {
        let prepared = campaigns.iter().map(|c| c.bid.prepare()).collect();
        let ids_are_positions = campaigns
            .iter()
            .enumerate()
            .all(|(i, c)| c.id.0 as usize == i);
        Self {
            campaigns,
            ids_are_positions,
            prepared,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_ba11),
            spare_normal: None,
            next_ad: 0,
            reserve_price: 0.0001,
            advance_discount: Self::DEFAULT_ADVANCE_DISCOUNT,
            auctions_run: 0,
            auctions_filled: 0,
            pricing: PricingRule::SecondPrice,
            floors: PriceFloors::none(),
            pacers: Vec::new(),
            floor_blocked: 0,
            throttle_skips: 0,
            pacing_ticks: 0,
            pacing_adjustments: 0,
            pacing_clamps: 0,
            sampler: None,
            lane: None,
            ahead_auctions: 0,
            ahead_fallbacks: 0,
            ahead_waits: 0,
            ahead_reanchors: 0,
        }
    }

    /// Applies a marketplace configuration: pricing rule, floors, and —
    /// for the paced regime — one pacing controller per reactive
    /// campaign.
    ///
    /// Call *after* [`Exchange::scale_budgets`]: each pacer's budget
    /// schedule is captured from the campaign's current budget, so a
    /// shard paces its population share, not the global budget.
    /// `types` must be index-aligned with the campaign catalog (see
    /// `MarketplaceConfig::assign_types`).
    ///
    /// # Panics
    ///
    /// Panics when the marketplace is paced and `types` is not aligned
    /// with the campaigns.
    pub fn configure_marketplace(&mut self, mc: &MarketplaceConfig, types: &[CampaignType]) {
        // Draws sampled ahead assumed the old floors and pacers.
        self.lane = None;
        self.pricing = mc.pricing;
        self.floors = mc.floors;
        self.pacers = if mc.enabled && mc.paced {
            assert_eq!(
                types.len(),
                self.campaigns.len(),
                "campaign-type assignment misaligned with the catalog"
            );
            self.campaigns
                .iter()
                .zip(types)
                .map(|(c, &ty)| match ty {
                    CampaignType::FixedCpc => None,
                    _ => Some(Pacer {
                        ty,
                        ctl: PacingController::new(
                            MarketplaceConfig::GAIN,
                            MarketplaceConfig::MIN_MULTIPLIER,
                            MarketplaceConfig::MAX_MULTIPLIER,
                        ),
                        schedule_budget: c.budget,
                        spent: 0.0,
                        price_sum: 0.0,
                        wins: 0,
                    }),
                })
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Overrides the clearing-price rule.
    pub fn set_pricing(&mut self, rule: PricingRule) {
        self.pricing = rule;
    }

    /// Overrides the per-slot-kind price floors.
    pub fn set_floors(&mut self, floors: PriceFloors) {
        self.lane = None;
        self.floors = floors;
    }

    /// Whether any campaign carries a pacing controller (i.e. pacing
    /// ticks would do work).
    pub fn has_pacers(&self) -> bool {
        self.pacers.iter().any(Option::is_some)
    }

    /// Current bid multiplier per campaign (`1.0` for unpaced entries).
    pub fn multipliers(&self) -> Vec<f64> {
        (0..self.campaigns.len())
            .map(|i| match self.pacers.get(i).and_then(Option::as_ref) {
                Some(p) => p.ctl.value(),
                None => 1.0,
            })
            .collect()
    }

    /// One pacing-controller update across all paced campaigns, at
    /// simulated time `now` of a run ending at `horizon`.
    ///
    /// Budget-paced campaigns compare net spend against the linear
    /// schedule `budget * now / horizon`; target-CPC campaigns compare
    /// the average clearing price paid against their target. Iteration
    /// is catalog order and the controller is deterministic, so tick
    /// outcomes are a pure function of the preceding auction stream.
    pub fn pacing_tick(&mut self, now: SimTime, horizon: SimTime) {
        self.pacing_ticks += 1;
        let frac = if horizon.as_millis() == 0 {
            1.0
        } else {
            (now.as_millis() as f64 / horizon.as_millis() as f64).min(1.0)
        };
        let mut moved = false;
        for p in self.pacers.iter_mut().flatten() {
            let before = p.pace();
            let (scheduled, actual) = match p.ty {
                CampaignType::PacedBudget | CampaignType::PacedFixedCpc => {
                    (p.schedule_budget * frac, p.spent)
                }
                CampaignType::TargetCpc { target_price } => {
                    if p.wins == 0 {
                        continue;
                    }
                    (target_price, p.price_sum / p.wins as f64)
                }
                CampaignType::FixedCpc => continue,
            };
            self.pacing_adjustments += 1;
            if p.ctl.adjust(scheduled, actual) {
                self.pacing_clamps += 1;
            }
            moved |= p.pace() != before;
        }
        // Draws sampled ahead assumed the old paces.
        if moved {
            self.reanchor();
        }
    }

    /// Runs one auction; returns the sold ad, or `None` when no bid clears
    /// the reserve.
    ///
    /// The bids come from one sampling loop: run here, or ahead when
    /// [`Exchange::sample_ahead_on`] gave it a sampler and the draw can be
    /// committed (see the `ahead` module). Either way the sale, the
    /// budgets and the RNG stream are the same bits.
    pub fn run_auction(&mut self, slot: &SlotOffer) -> Option<SoldAd> {
        self.auctions_run += 1;
        // With no floors configured (the legacy path) `entry_floor` is
        // exactly the reserve, so bid gating, the second-price seed, and
        // every RNG draw match the pre-marketplace exchange bit for bit.
        let kind_floor = self.floors.for_kind(slot.kind);
        let entry_floor = kind_floor.max(self.reserve_price);
        let (best, second) = match self.commit_ahead(entry_floor) {
            Some(drawn) => drawn,
            None => {
                let drawn = draw_bids(
                    &self.prepared,
                    &mut self.rng,
                    &mut self.spare_normal,
                    slot.category,
                    self.reserve_price,
                    entry_floor,
                    &mut Live {
                        campaigns: &self.campaigns,
                        pacers: &self.pacers,
                        throttle_skips: &mut self.throttle_skips,
                        floor_blocked: &mut self.floor_blocked,
                    },
                );
                // A lane here just missed: it goes on from after this
                // auction, if the marketplace can still be sampled ahead.
                if self.lane.is_some() {
                    if self.samples_ahead() {
                        self.reanchor();
                    } else {
                        self.lane = None;
                        self.sampler = None;
                    }
                }
                drawn
            }
        };
        let (winner_idx, win_bid) = best?;
        let mut price = match self.pricing {
            PricingRule::SecondPrice => second,
            PricingRule::FirstPrice => win_bid,
        };
        if slot.kind == SlotKind::Advance {
            price *= self.advance_discount;
        }
        // A configured floor is a hard lower bound on what clears,
        // discount included. Never exceeds the winning bid: both price
        // and floor are <= win_bid here. Zero floors (the legacy path)
        // make this a no-op.
        if price < kind_floor {
            price = kind_floor;
        }
        let winner = &mut self.campaigns[winner_idx];
        winner.debit(price);
        // The winner entered this auction, so it enters the next one
        // unless the debit took its budget below its mean price.
        if winner.can_afford(winner.bid.mean_price) {
            if let Some(lane) = &mut self.lane {
                lane.debited(winner_idx, winner.budget);
            }
        } else {
            self.reanchor();
        }
        if let Some(p) = self.pacers.get_mut(winner_idx).and_then(Option::as_mut) {
            p.spent += price;
            p.price_sum += price;
            p.wins += 1;
        }
        self.auctions_filled += 1;
        let id = AdId(self.next_ad);
        self.next_ad += 1;
        Some(SoldAd {
            id,
            campaign: self.campaigns[winner_idx].id,
            price,
            winning_bid: win_bid,
            deadline: slot.deadline,
            sold_at: slot.at,
        })
    }

    /// Lets this exchange sample its auctions ahead on `sampler`, the
    /// helper of the worker that drives it, whenever no campaign targets
    /// a category and no per-kind floor sits above the reserve. Pacers
    /// and thin budgets are fine. Results are bit-identical either way;
    /// the helper only pays where a core would otherwise sit idle, since
    /// it runs flat out until every lane is a few batches ahead.
    ///
    /// The next auction registers this exchange's lane if the marketplace
    /// can be sampled ahead then, and sampling ahead stays off for good
    /// otherwise, or once the sampler is dropped. A pacing tick that
    /// moves a campaign's pace, a budget crossing its mean price, a
    /// reseed, a budget rescale and a draw that cannot be committed (the
    /// reserve moved, or a covered budget ran low) re-anchor the lane in
    /// place at the current state. A marketplace change or new floors
    /// drop it until the next auction registers it again.
    pub fn sample_ahead_on(&mut self, sampler: &BidSampler) {
        self.lane = None;
        self.sampler = Some(sampler.handle());
    }

    /// Whether an auction's draws depend only on the RNG stream, the
    /// budgets and the pacers, which a lane snapshots: what sampling
    /// them ahead requires.
    fn samples_ahead(&self) -> bool {
        let floor = self.floors.realtime.max(self.floors.advance);
        floor <= self.reserve_price
            && self
                .campaigns
                .iter()
                .all(|c| c.bid.target_category.is_none())
    }

    /// The next draw sampled ahead, committed: the stream moves to where
    /// sampling it here would have left it. `None` means "sample this
    /// auction here": the stream still sits before it.
    ///
    /// A draw is committed when the reserve it was sampled under is
    /// still the entry floor, and the lane's lowest covered budget is at
    /// least the largest bid any covered budget check of the draw
    /// compared against. Then every gate of [`draw_bids`] passes here
    /// exactly as it did ahead, and the thin campaigns' bids are ranked
    /// in against their live budgets.
    #[inline]
    fn commit_ahead(&mut self, entry_floor: f64) -> Option<(Option<(usize, f64)>, f64)> {
        let sampler = self.sampler.as_ref()?;
        if self.lane.is_none() {
            if !self.samples_ahead() {
                self.sampler = None;
                return None;
            }
            let pacers = &self.pacers;
            self.lane = sampler.lane(
                &self.prepared,
                &self.campaigns,
                &self.rng,
                self.spare_normal,
                self.reserve_price,
                |i| pace_of(pacers, i),
            );
        }
        let committed = match &mut self.lane {
            Some(lane) if entry_floor == lane.reserve() && self.reserve_price == lane.reserve() => {
                lane.commit(&self.campaigns, &mut self.ahead_waits)
            }
            Some(_) => Err(Missed::Draw),
            None => Err(Missed::Ended),
        };
        self.ahead_fallbacks += u64::from(committed.is_err());
        match committed {
            Ok(c) => {
                self.rng.clone_from(&c.draw.rng_after);
                self.spare_normal = c.draw.spare_after;
                self.throttle_skips += c.draw.skips;
                self.ahead_auctions += 1;
                Some((c.best, c.second))
            }
            // `run_auction` samples it here and re-anchors the lane.
            Err(Missed::Draw) => None,
            // The sampler is gone or its helper would not start or died.
            Err(Missed::Ended) => {
                self.lane = None;
                self.sampler = None;
                None
            }
        }
    }

    /// Re-anchors this exchange's lane, if it has one, at the current
    /// stream position, budgets, pacers and reserve.
    fn reanchor(&mut self) {
        if let Some(lane) = &mut self.lane {
            let pacers = &self.pacers;
            lane.reanchor(
                &self.campaigns,
                &self.rng,
                self.spare_normal,
                self.reserve_price,
                |i| pace_of(pacers, i),
            );
            self.ahead_reanchors += 1;
        }
    }

    /// Scales every campaign budget by `fraction`.
    ///
    /// Sharded simulation gives each shard an exchange with the *same*
    /// campaign catalog (so bid distributions and prices are unchanged)
    /// but only its population share of each budget: the shards' billed
    /// spend then sums to at most the global budget by construction, with
    /// no cross-thread reconciliation during the run. `1.0` is the
    /// unsharded no-op.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `(0, 1]`.
    pub fn scale_budgets(&mut self, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "budget fraction {fraction} outside (0, 1]"
        );
        for c in &mut self.campaigns {
            c.budget *= fraction;
        }
        // Lowered budgets void the lane's covered minimum.
        self.reanchor();
    }

    /// Re-seeds the bid-sampling randomness from `seed`.
    ///
    /// Lets sharded runs keep one campaign catalog (built from the global
    /// seed) while giving each shard's auction stream independent
    /// randomness. Uses the same seed derivation as [`Exchange::new`], so
    /// reseeding with the construction seed is a stream reset.
    pub fn reseed_bids(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x5eed_ba11);
        // A stream reset must also drop the banked polar variate, or the
        // first post-reseed draw would leak the old stream's randomness.
        self.spare_normal = None;
        // The lane samples the old stream.
        self.reanchor();
    }

    /// Refunds a campaign after an SLA expiration. Net spend drops with
    /// the refund, so pacing schedules see refunded budget as available
    /// again.
    pub fn refund(&mut self, campaign: CampaignId, price: f64) {
        // Synthetic catalogs number campaigns by position, which turns the
        // lookup into an index; hand-built catalogs keep the search.
        let i = if self.ids_are_positions {
            campaign.0 as usize
        } else {
            match self.campaigns.iter().position(|c| c.id == campaign) {
                Some(i) => i,
                None => return,
            }
        };
        let Some(c) = self.campaigns.get_mut(i) else {
            return;
        };
        let entered = c.can_afford(c.bid.mean_price);
        c.credit(price);
        let enters = c.can_afford(c.bid.mean_price);
        if let Some(p) = self.pacers.get_mut(i).and_then(Option::as_mut) {
            p.spent -= price;
        }
        // The refund lifted the budget back over the mean price: draws
        // sampled ahead left the campaign out.
        if enters != entered {
            self.reanchor();
        }
    }

    /// Folds the exchange's counters into a metric registry (`auction.*` /
    /// `pacing.*`). Every value is a count of simulated events, so the
    /// published metrics are deterministic.
    pub fn publish(&self, reg: &MetricRegistry) {
        reg.add("auction.auctions", self.auctions_run);
        reg.add("auction.filled", self.auctions_filled);
        reg.add("auction.floor_blocked_bids", self.floor_blocked);
        reg.add("pacing.ticks", self.pacing_ticks);
        reg.add("pacing.adjustments", self.pacing_adjustments);
        reg.add("pacing.clamps", self.pacing_clamps);
        reg.add("pacing.throttle_skips", self.throttle_skips);
        // Whether auctions were sampled ahead depends on the host's idle
        // cores, not on the simulation: host facts live in `proc.*`,
        // which deterministic snapshots exclude.
        reg.add("proc.auction.ahead_auctions", self.ahead_auctions);
        reg.add("proc.auction.ahead_fallbacks", self.ahead_fallbacks);
        // Refills that found no draw ready: whether the helper kept up.
        reg.add("proc.auction.ahead_waits", self.ahead_waits);
        // Lanes restarted from the live state: ticks, budgets crossing
        // their mean price, reseeds, rescales and misses.
        reg.add("proc.auction.ahead_reanchors", self.ahead_reanchors);
        if self.has_pacers() {
            let max = self.multipliers().into_iter().fold(0.0f64, f64::max);
            reg.gauge_max("pacing.multiplier_max_milli", (max * 1000.0).round() as u64);
        }
    }

    /// Number of auctions run so far.
    pub fn auctions_run(&self) -> u64 {
        self.auctions_run
    }

    /// Fraction of auctions that produced a sale.
    pub fn fill_rate(&self) -> f64 {
        if self.auctions_run == 0 {
            0.0
        } else {
            self.auctions_filled as f64 / self.auctions_run as f64
        }
    }

    /// Remaining budget across all campaigns.
    pub fn total_budget(&self) -> f64 {
        self.campaigns.iter().map(|c| c.budget).sum()
    }

    /// Immutable view of the campaigns.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }
}

/// What the auction's sampling loop asks of the state beyond the bids.
/// [`Exchange::run_auction`] answers from its live budgets, pacers and
/// counters; the helper sampling ahead answers with every gate open.
pub(crate) trait Gates {
    /// Whether campaign `i`'s budget covers its mean bid: the entry test
    /// of every auction, before any draw.
    fn enters(&mut self, i: usize) -> bool;
    /// Whether campaign `i`'s budget covers `bid`.
    fn affords(&mut self, i: usize, bid: f64) -> bool;
    /// Whether some campaign's pace may not be unit ([`Pace::is_unit`]).
    /// Asked once per auction; when `false` the loop never asks
    /// [`Gates::pace`], whose every answer would be `Some(1.0)`.
    fn paced(&self) -> bool;
    /// Campaign `i`'s bid multiplier, or `None` when pacing throttles it
    /// out of this auction. Any draw comes after the bid draw, so it
    /// extends — never reorders — the stream.
    fn pace(&mut self, i: usize, rng: &mut StdRng) -> Option<f64>;
    /// Counts a bid that a floor above the reserve blocked.
    fn floor_blocked(&mut self);
}

/// The exchange's live state, as the sampling loop sees it.
struct Live<'a> {
    campaigns: &'a [Campaign],
    pacers: &'a [Option<Pacer>],
    throttle_skips: &'a mut u64,
    floor_blocked: &'a mut u64,
}

impl Gates for Live<'_> {
    #[inline]
    fn enters(&mut self, i: usize) -> bool {
        let c = &self.campaigns[i];
        c.can_afford(c.bid.mean_price)
    }

    #[inline]
    fn affords(&mut self, i: usize, bid: f64) -> bool {
        self.campaigns[i].can_afford(bid)
    }

    /// Whether pacers are configured: the paces themselves move at every
    /// tick, and one vector test is cheaper than tracking them.
    #[inline]
    fn paced(&self) -> bool {
        !self.pacers.is_empty()
    }

    #[inline]
    fn pace(&mut self, i: usize, rng: &mut StdRng) -> Option<f64> {
        pace_of(self.pacers, i).apply(rng, self.throttle_skips)
    }

    #[inline]
    fn floor_blocked(&mut self) {
        *self.floor_blocked += 1;
    }
}

/// The auction's one sampling loop: every campaign's bid, drawn in
/// catalog order from `rng` and `spare`, gated by `gates`. Returns the
/// leader `(index, bid)` and the second price, seeded with `entry_floor`.
///
/// Bids are drawn in log space and exponentiated lazily: once some
/// evaluated bid is known to sit at or below the running second price,
/// any later draw whose logarithm does not exceed that bid's can change
/// neither the winner nor the price (`exp` is monotone), so it is
/// dropped without calling `exp`. Every RNG draw still happens, in the
/// same order.
#[inline]
pub(crate) fn draw_bids<G: Gates>(
    prepared: &[PreparedBid],
    rng: &mut StdRng,
    spare: &mut Option<f64>,
    category: Option<u8>,
    reserve: f64,
    entry_floor: f64,
    gates: &mut G,
) -> (Option<(usize, f64)>, f64) {
    // A floor above the reserve counts each bid it blocks, so such an
    // auction has to look at every bid: it never raises `skip_log`.
    let counts_blocked = entry_floor > reserve;
    // With every pace unit no bid is multiplied or throttled, and every
    // bid that is drawn ranks by its logarithm unless a floor counts it.
    let paced = gates.paced();
    let mut best: Option<(usize, f64)> = None;
    let mut second = entry_floor;
    // `skip_log` is the largest known `x` with `exp(x) <= second`;
    // `best_log` is the leader's, banked for when it is outbid.
    // NEG_INFINITY stands for "not known" (paced multipliers break the
    // bid/log correspondence).
    let mut skip_log = f64::NEG_INFINITY;
    let mut best_log = f64::NEG_INFINITY;
    for (i, p) in prepared.iter().enumerate() {
        if !gates.enters(i) {
            continue;
        }
        let Some(x) = p.sample_log_paired(rng, spare, category) else {
            continue;
        };
        let mut multiplier = 1.0;
        if paced {
            let Some(m) = gates.pace(i, rng) else {
                continue;
            };
            multiplier = m;
        }
        // Multiplying by exactly 1.0 is the identity, so `x` is the
        // bid's logarithm whenever the multiplier is 1.0.
        let ranks_by_log = !counts_blocked && (!paced || multiplier == 1.0);
        if ranks_by_log && x <= skip_log {
            // At most `second`: it would fall through every arm below
            // without changing `best` or `second`.
            continue;
        }
        let log = if ranks_by_log { x } else { f64::NEG_INFINITY };
        let mut bid = x.exp();
        if paced {
            bid *= multiplier;
        }
        if bid < entry_floor || !gates.affords(i, bid) {
            if bid >= reserve && bid < entry_floor {
                gates.floor_blocked();
            }
            continue;
        }
        match best {
            None => (best, best_log) = (Some((i, bid)), log),
            Some((_, b)) if bid > b => {
                second = b;
                skip_log = skip_log.max(best_log);
                (best, best_log) = (Some((i, bid)), log);
            }
            Some(_) => {
                second = second.max(bid);
                skip_log = skip_log.max(log);
            }
        }
    }
    (best, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{BidModel, CampaignCatalog};
    use adpf_stats::dist::LogNormal;
    use proptest::prelude::*;

    fn rt_slot() -> SlotOffer {
        SlotOffer::realtime(SimTime::ZERO, None)
    }

    impl Exchange {
        /// The auction as it stood before bids were ranked in log space:
        /// every bid drawn straight from its [`BidModel`] and
        /// exponentiated. The differential test below holds
        /// [`Exchange::run_auction`] to it bit for bit.
        fn run_auction_reference(&mut self, slot: &SlotOffer) -> Option<SoldAd> {
            self.auctions_run += 1;
            let kind_floor = self.floors.for_kind(slot.kind);
            let entry_floor = kind_floor.max(self.reserve_price);
            let mut best: Option<(usize, f64)> = None;
            let mut second = entry_floor;
            for (i, c) in self.campaigns.iter().enumerate() {
                if !c.can_afford(c.bid.mean_price) {
                    continue;
                }
                if let Some(t) = c.bid.target_category {
                    if slot.category != Some(t) {
                        continue;
                    }
                }
                if c.bid.participation < 1.0 && self.rng.gen::<f64>() >= c.bid.participation {
                    continue;
                }
                let Ok(dist) = LogNormal::from_mean_cv(c.bid.mean_price, c.bid.cv) else {
                    continue;
                };
                let mut bid = dist.sample_paired(&mut self.rng, &mut self.spare_normal);
                if let Some(p) = self.pacers.get(i).and_then(Option::as_ref) {
                    match p.ty {
                        CampaignType::PacedBudget | CampaignType::TargetCpc { .. } => {
                            bid *= p.ctl.value();
                        }
                        CampaignType::PacedFixedCpc => {
                            let throttle = p.ctl.value().min(1.0);
                            if throttle < 1.0 && self.rng.gen::<f64>() >= throttle {
                                self.throttle_skips += 1;
                                continue;
                            }
                        }
                        CampaignType::FixedCpc => {}
                    }
                }
                if bid < entry_floor || !c.can_afford(bid) {
                    if bid >= self.reserve_price && bid < entry_floor {
                        self.floor_blocked += 1;
                    }
                    continue;
                }
                match best {
                    None => best = Some((i, bid)),
                    Some((_, b)) if bid > b => {
                        second = b;
                        best = Some((i, bid));
                    }
                    Some(_) => second = second.max(bid),
                }
            }
            let (winner_idx, win_bid) = best?;
            let mut price = match self.pricing {
                PricingRule::SecondPrice => second,
                PricingRule::FirstPrice => win_bid,
            };
            if slot.kind == SlotKind::Advance {
                price *= self.advance_discount;
            }
            if price < kind_floor {
                price = kind_floor;
            }
            self.campaigns[winner_idx].debit(price);
            if let Some(p) = self.pacers.get_mut(winner_idx).and_then(Option::as_mut) {
                p.spent += price;
                p.price_sum += price;
                p.wins += 1;
            }
            self.auctions_filled += 1;
            let id = AdId(self.next_ad);
            self.next_ad += 1;
            Some(SoldAd {
                id,
                campaign: self.campaigns[winner_idx].id,
                price,
                winning_bid: win_bid,
                deadline: slot.deadline,
                sold_at: slot.at,
            })
        }
    }

    /// A catalog mixing every gate the auction loop has: participation
    /// exactly 0, exactly 1 and in between; contextual targets; bid
    /// models outside the lognormal's domain; and, when `starved`,
    /// budgets a handful of bids deep so they run dry mid-stream.
    fn adversarial_catalog(n: u32, seed: u64, starved: bool) -> Vec<Campaign> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mean_price = match rng.gen_range(0..12) {
                    0 => -0.001,
                    1 => f64::NAN,
                    _ => rng.gen_range(0.0002..0.01),
                };
                let depth = if starved {
                    rng.gen_range(0.5..6.0)
                } else {
                    1e6
                };
                Campaign {
                    id: CampaignId(i),
                    budget: depth * 0.002,
                    bid: BidModel {
                        mean_price,
                        cv: if rng.gen_range(0..12) == 0 {
                            0.0
                        } else {
                            rng.gen_range(0.2..0.8)
                        },
                        participation: match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.gen_range(0.05..0.95),
                        },
                        target_category: (rng.gen_range(0..3) == 0).then(|| rng.gen_range(0..3)),
                    },
                }
            })
            .collect()
    }

    fn deep(id: u32, mean_price: f64, budget: f64) -> Campaign {
        Campaign {
            id: CampaignId(id),
            budget,
            bid: BidModel {
                mean_price,
                cv: 0.2,
                participation: 1.0,
                target_category: None,
            },
        }
    }

    /// [`adversarial_catalog`] without contextual targets, so a static
    /// marketplace over it samples ahead. When `starved`, a rival keeps
    /// the price near 0.01 and two leaders bid around 0.02: one with a
    /// budget under a lane's cover from the start, one covered at first
    /// that drains through its own bids before its budget falls under its
    /// mean price.
    fn static_catalog(n: u32, seed: u64, starved: bool) -> Vec<Campaign> {
        let mut cs = adversarial_catalog(n, seed, false);
        for c in &mut cs {
            c.bid.target_category = None;
        }
        if starved {
            cs.push(deep(n, 0.02, 0.05));
            cs.push(deep(n + 1, 0.02, 0.5));
            cs.push(deep(n + 2, 0.01, 1e3));
        }
        cs
    }

    /// Campaign types whose paces stay unit through ticks at the end of
    /// the schedule: fixed and throttled campaigns alternate, and a
    /// throttle behind its schedule rises to `Throttle(1.0)`. With
    /// `moves`, the last campaign is budget-paced instead, so the first
    /// such tick scales its bids by more than 1.
    fn unit_types(n: usize, moves: bool) -> Vec<CampaignType> {
        (0..n)
            .map(|i| {
                if moves && i + 1 == n {
                    CampaignType::PacedBudget
                } else if i % 2 == 0 {
                    CampaignType::PacedFixedCpc
                } else {
                    CampaignType::FixedCpc
                }
            })
            .collect()
    }

    /// How many campaigns' paces are not unit.
    fn off_unit(ex: &Exchange) -> usize {
        (0..ex.campaigns.len())
            .filter(|&i| !pace_of(&ex.pacers, i).is_unit())
            .count()
    }

    fn random_slot(script: &mut StdRng, at: SimTime) -> SlotOffer {
        match script.gen_range(0..3) {
            0 => SlotOffer::advance(at, at + adpf_desim::SimDuration::from_hours(4)),
            1 => SlotOffer::realtime(at, None),
            _ => SlotOffer::realtime(at, Some(script.gen_range(0..3))),
        }
    }

    /// One auction on both exchanges: the same sale, RNG state, spare,
    /// budgets and throttle skips after it.
    fn lockstep(
        ahead: &mut Exchange,
        plain: &mut Exchange,
        slot: &SlotOffer,
    ) -> Result<Option<SoldAd>, TestCaseError> {
        let sold = ahead.run_auction(slot);
        prop_assert_eq!(sold_bits(sold), sold_bits(plain.run_auction(slot)));
        prop_assert!(
            ahead.rng == plain.rng,
            "RNG streams diverged at auction {}",
            plain.auctions_run
        );
        prop_assert_eq!(
            ahead.spare_normal.map(f64::to_bits),
            plain.spare_normal.map(f64::to_bits)
        );
        for (a, b) in ahead.campaigns.iter().zip(&plain.campaigns) {
            prop_assert_eq!(a.budget.to_bits(), b.budget.to_bits());
        }
        prop_assert_eq!(ahead.throttle_skips, plain.throttle_skips);
        Ok(sold)
    }

    fn sold_bits(s: Option<SoldAd>) -> Option<(AdId, CampaignId, u64, u64, SimTime, SimTime)> {
        s.map(|s| {
            (
                s.id,
                s.campaign,
                s.price.to_bits(),
                s.winning_bid.to_bits(),
                s.deadline,
                s.sold_at,
            )
        })
    }

    proptest! {
        /// The lazily evaluated kernel against the eager reference, in
        /// lockstep over one random marketplace: the same sale, counters,
        /// budgets and RNG state after every single auction. Markets 2
        /// and 3 have pacers whose paces all stay unit (`unit_types`), so
        /// the loop's pacing check is on while every pace is unit; in 3
        /// the first tick then moves a budget-paced leader's pace off
        /// unit.
        #[test]
        fn kernel_matches_the_eager_reference(
            seed in any::<u64>(),
            campaigns in 0u32..40,
            starved in any::<bool>(),
            market in 0u8..4,
            first_price in any::<bool>(),
            floor_sel in 0u8..3,
        ) {
            let mut cs = adversarial_catalog(campaigns, seed, starved);
            let unit = market >= 2;
            if market == 3 {
                cs.push(deep(campaigns, 0.02, 1e3));
            }
            let mut mc = if market == 0 {
                MarketplaceConfig::static_exchange()
            } else {
                MarketplaceConfig::paced()
            };
            if first_price {
                mc.pricing = PricingRule::FirstPrice;
            }
            // No floor; one below the 0.0001 reserve; one above it that
            // blocks a real share of bids.
            mc.floors = PriceFloors::uniform([0.0, 0.00005, 0.002][floor_sel as usize]);
            let types = if unit {
                unit_types(cs.len(), market == 3)
            } else {
                mc.assign_types(&cs)
            };
            let mk = || {
                let mut ex = Exchange::new(cs.clone(), seed);
                ex.configure_marketplace(&mc, &types);
                ex
            };
            let (mut kernel, mut reference) = (mk(), mk());
            let mut script = StdRng::seed_from_u64(seed ^ 0x005c_2197);
            let horizon = SimTime::from_hours(10);
            let mut last_sale = None;
            for k in 0u64..300 {
                let at = SimTime::from_mins(k);
                let slot = match script.gen_range(0..3) {
                    0 => SlotOffer::advance(at, at + adpf_desim::SimDuration::from_hours(4)),
                    1 => SlotOffer::realtime(at, None),
                    _ => SlotOffer::realtime(at, Some(script.gen_range(0..3))),
                };
                let sold = kernel.run_auction(&slot);
                prop_assert_eq!(sold_bits(sold), sold_bits(reference.run_auction_reference(&slot)));
                prop_assert!(kernel.rng == reference.rng, "RNG streams diverged at auction {}", k);
                prop_assert_eq!(
                    kernel.spare_normal.map(f64::to_bits),
                    reference.spare_normal.map(f64::to_bits)
                );
                prop_assert_eq!(kernel.floor_blocked, reference.floor_blocked);
                prop_assert_eq!(kernel.throttle_skips, reference.throttle_skips);
                prop_assert_eq!(kernel.auctions_filled, reference.auctions_filled);
                for (a, b) in kernel.campaigns.iter().zip(&reference.campaigns) {
                    prop_assert_eq!(a.budget.to_bits(), b.budget.to_bits());
                }
                last_sale = sold.or(last_sale);
                // Ticks early and late against the linear schedule push
                // multipliers to both sides of 1; refunds reopen budgets.
                if k % 16 == 15 {
                    let now = if !unit && script.gen::<bool>() { at } else { horizon };
                    kernel.pacing_tick(now, horizon);
                    reference.pacing_tick(now, horizon);
                    if unit {
                        prop_assert_eq!(off_unit(&kernel), usize::from(market == 3));
                    }
                }
                if let (Some(s), 0) = (last_sale, script.gen_range(0..8)) {
                    kernel.refund(s.campaign, s.price);
                    reference.refund(s.campaign, s.price);
                }
            }
        }

        /// Auctions sampled ahead against the same exchange sampling them
        /// itself, in lockstep: the same sale, budgets, RNG state, spare
        /// and throttle skips after every auction, through refunds, a
        /// mid-stream reseed, a reserve change and, when `starved`, budgets
        /// that run below their own mean price. In the paced market
        /// (`market == 2`) pacing ticks move multipliers to both sides of
        /// 1 and throttles fire. Markets 5 and 6 have pacers whose paces
        /// all stay unit (`unit_types`), so the lane registers unpaced; in
        /// 6 the first tick moves a budget-paced leader's pace off unit,
        /// and the re-anchor must start pacing the helper's draws. Every
        /// marketplace without a targeted campaign or a floor above the
        /// reserve is served ahead throughout, but for the one draw the
        /// reserve change voids and, when `starved`, at most one miss as
        /// the covered leader drains (after it, that leader is thin); the
        /// others never register a lane.
        #[test]
        fn ahead_matches_sequential(
            seed in any::<u64>(),
            campaigns in 0u32..40,
            starved in any::<bool>(),
            market in 0u8..7,
        ) {
            let mut cs = static_catalog(campaigns, seed, starved);
            let mut mc = MarketplaceConfig::static_exchange();
            match market {
                1 => mc.floors = PriceFloors::uniform(0.00005),
                2 => {
                    mc = MarketplaceConfig::paced();
                    // One rival of each campaign type. The throttled one
                    // (`assign_types` cycles by position) bids highest, so
                    // it wins enough to run ahead of an early schedule.
                    let n = cs.len();
                    cs.extend((n..n + 4).map(|i| {
                        let mean = if i % 4 == 2 { 0.5 } else { 0.02 };
                        deep(i as u32, mean, 1e3)
                    }));
                }
                3 => mc.floors = PriceFloors::uniform(0.002),
                4 => {
                    let mut targeted = deep(cs.len() as u32, 0.002, 1e3);
                    targeted.bid.target_category = Some(1);
                    cs.push(targeted);
                }
                5 => mc = MarketplaceConfig::paced(),
                6 => {
                    mc = MarketplaceConfig::paced();
                    cs.push(deep(cs.len() as u32, 0.02, 1e3));
                }
                _ => {}
            }
            let unit = market >= 5;
            let samples_ahead = market < 3 || unit;
            let types = if unit {
                unit_types(cs.len(), market == 6)
            } else {
                mc.assign_types(&cs)
            };
            let mk = || {
                let mut ex = Exchange::new(cs.clone(), seed);
                ex.configure_marketplace(&mc, &types);
                ex
            };
            let (mut ahead, mut plain) = (mk(), mk());
            let sampler = BidSampler::new();
            ahead.sample_ahead_on(&sampler);
            let mut script = StdRng::seed_from_u64(seed ^ 0x0a4e_ad00);
            let horizon = SimTime::from_hours(10);
            let mut last_sale = None;
            let (mut above, mut below) = (false, false);
            for k in 0u64..300 {
                if k == 100 {
                    ahead.reseed_bids(seed ^ 1);
                    plain.reseed_bids(seed ^ 1);
                }
                if k == 200 {
                    prop_assert!(ahead.ahead_fallbacks <= u64::from(starved));
                    ahead.reserve_price = 0.0004;
                    plain.reserve_price = 0.0004;
                }
                let at = SimTime::from_mins(k);
                let sold = lockstep(&mut ahead, &mut plain, &random_slot(&mut script, at))?;
                last_sale = sold.or(last_sale);
                if k % 16 == 15 {
                    // A tick at the start of the schedule finds every
                    // campaign that spent ahead of it, one at the end
                    // every campaign behind. The first two come early.
                    let now = if unit {
                        horizon
                    } else if k < 32 || script.gen::<bool>() {
                        SimTime::from_millis(1)
                    } else {
                        horizon
                    };
                    ahead.pacing_tick(now, horizon);
                    plain.pacing_tick(now, horizon);
                    if unit {
                        prop_assert_eq!(off_unit(&plain), usize::from(market == 6));
                    }
                    for m in plain.multipliers() {
                        above |= m > 1.0;
                        below |= m < 1.0;
                    }
                }
                if let (Some(s), 0) = (last_sale, script.gen_range(0..8)) {
                    ahead.refund(s.campaign, s.price);
                    plain.refund(s.campaign, s.price);
                }
            }
            prop_assert_eq!(ahead.floor_blocked, plain.floor_blocked);
            prop_assert_eq!(plain.ahead_auctions + plain.ahead_fallbacks, 0);
            if samples_ahead {
                prop_assert_eq!(ahead.ahead_auctions + ahead.ahead_fallbacks, 300);
                prop_assert!(ahead.ahead_fallbacks <= 1 + u64::from(starved));
                // The reseed and the miss, at least.
                prop_assert!(ahead.ahead_reanchors >= 2, "{}", ahead.ahead_reanchors);
            } else {
                prop_assert_eq!(ahead.ahead_auctions + ahead.ahead_fallbacks, 0);
            }
            if market == 2 {
                prop_assert!(above && below, "multipliers above 1: {}, below: {}", above, below);
                prop_assert!(plain.throttle_skips > 0);
            }
        }

        /// A campaign whose budget sits between its mean price and its
        /// bids, against an exchange sampling in place, in lockstep. Ahead
        /// it is thin: its bids are ranked in at commit against its live
        /// budget. A win takes its budget below its mean price and out of
        /// the auction, and refunds of its sales lift it back in; each
        /// crossing re-anchors the lane. Thin budgets cost no misses, so
        /// at least 99 % of the auctions are served ahead.
        #[test]
        fn ahead_serves_thin_budgets(
            seed in any::<u64>(),
            campaigns in 0u32..40,
            paced in any::<bool>(),
        ) {
            let mut cs = static_catalog(campaigns, seed, false);
            let thin = cs.len();
            cs.push(deep(thin as u32, 0.02, 0.022));
            let mc = if paced {
                MarketplaceConfig::paced()
            } else {
                MarketplaceConfig::static_exchange()
            };
            let types = mc.assign_types(&cs);
            let mk = || {
                let mut ex = Exchange::new(cs.clone(), seed);
                ex.configure_marketplace(&mc, &types);
                ex
            };
            let (mut ahead, mut plain) = (mk(), mk());
            let sampler = BidSampler::new();
            ahead.sample_ahead_on(&sampler);
            let mut script = StdRng::seed_from_u64(seed ^ 0x7412_b0d6);
            let horizon = SimTime::from_hours(10);
            let (mut sales, mut refunds) = (Vec::new(), 0);
            for k in 0u64..1_000 {
                let at = SimTime::from_secs(k);
                let sold = lockstep(&mut ahead, &mut plain, &random_slot(&mut script, at))?;
                sales.extend(sold.filter(|s| s.campaign == CampaignId(thin as u32)));
                if !sales.is_empty() && script.gen_range(0..4) == 0 {
                    let s: SoldAd = sales.swap_remove(0);
                    ahead.refund(s.campaign, s.price);
                    plain.refund(s.campaign, s.price);
                    refunds += 1;
                }
                if paced && k % 50 == 49 {
                    ahead.pacing_tick(at, horizon);
                    plain.pacing_tick(at, horizon);
                }
            }
            prop_assert!(refunds > 0);
            prop_assert!(ahead.ahead_reanchors > 0);
            prop_assert!(
                ahead.ahead_auctions * 100 >= ahead.auctions_run * 99,
                "{} of {} served ahead",
                ahead.ahead_auctions,
                ahead.auctions_run
            );
        }

        /// A covered leader drained by its own wins, against an exchange
        /// sampling in place, in lockstep. The rival keeps the price near
        /// 0.0002, so the leader's budget steps down finely through the
        /// range of its own bids while it still covers its mean price:
        /// some draw asks about a bid above the covered minimum, misses,
        /// is sampled in place and re-anchored past. After it the leader
        /// is thin, so every other auction is served ahead.
        #[test]
        fn ahead_misses_as_a_covered_leader_drains(seed in any::<u64>()) {
            // The cover is 16 × 0.02 = 0.32: the leader starts covered.
            let mut leader = deep(0, 0.02, 0.33);
            leader.bid.cv = 0.8;
            let cs = vec![leader, deep(1, 0.0002, 1e3)];
            let (mut ahead, mut plain) = (Exchange::new(cs.clone(), seed), Exchange::new(cs, seed));
            let sampler = BidSampler::new();
            ahead.sample_ahead_on(&sampler);
            let mut script = StdRng::seed_from_u64(seed ^ 0x00d2_a1b5);
            let mut missed_entering = None;
            for k in 0u64..3_000 {
                lockstep(&mut ahead, &mut plain, &random_slot(&mut script, SimTime::from_secs(k)))?;
                if missed_entering.is_none() && !ahead.campaigns[0].can_afford(0.02) {
                    missed_entering = Some(ahead.ahead_fallbacks);
                }
            }
            let missed = missed_entering.expect("the leader's budget falls below its mean price");
            prop_assert!(missed >= 1, "no miss before the leader stopped entering");
            prop_assert_eq!(ahead.ahead_fallbacks, missed);
            prop_assert!(ahead.ahead_reanchors > missed);
            prop_assert_eq!(ahead.ahead_auctions + missed, ahead.auctions_run);
        }

        /// Two to five exchanges on one sampler, driven the way a serve
        /// worker drives its engines: runs of auctions on one exchange
        /// at a time, in random order and of random length, each held in
        /// lockstep with a twin sampling in place. When `starved`, lane 0
        /// re-anchors as its leaders' budgets cross their mean prices and
        /// misses at most once; lane 1 is reseeded mid-stream, and the
        /// last lane is dropped and registered again from the middle of
        /// its stream. Every other auction is served ahead. Dropping the
        /// sampler ends every lane, and the exchanges carry on in place.
        #[test]
        fn ahead_lanes_share_one_sampler(
            seed in any::<u64>(),
            exchanges in 2usize..6,
            starved in any::<bool>(),
        ) {
            let mut pairs: Vec<(Exchange, Exchange)> = (0..exchanges)
                .map(|e| {
                    let lane_seed = seed ^ (e as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let campaigns = 5 + (lane_seed % 35) as u32;
                    let cs = static_catalog(campaigns, lane_seed, starved && e == 0);
                    (Exchange::new(cs.clone(), lane_seed), Exchange::new(cs, lane_seed))
                })
                .collect();
            let sampler = BidSampler::new();
            for (ahead, _) in &mut pairs {
                ahead.sample_ahead_on(&sampler);
            }
            let mut script = StdRng::seed_from_u64(seed ^ 0x1a9e_5000);
            let mut last_sale = vec![None; exchanges];
            let mut at = SimTime::ZERO;
            let mut run = |pairs: &mut [(Exchange, Exchange)],
                           script: &mut StdRng,
                           e: usize,
                           len: u32|
             -> Result<(), TestCaseError> {
                let (ahead, plain) = &mut pairs[e];
                for _ in 0..len {
                    at += adpf_desim::SimDuration::from_secs(1);
                    let sold = lockstep(ahead, plain, &random_slot(script, at))?;
                    last_sale[e] = sold.or(last_sale[e]);
                    if let (Some(s), 0) = (last_sale[e], script.gen_range(0..8)) {
                        ahead.refund(s.campaign, s.price);
                        plain.refund(s.campaign, s.price);
                    }
                }
                Ok(())
            };
            // Each exchange first runs long enough for the starved lane's
            // leader to run dry; then runs of up to 700 auctions, past the
            // 192 draws a lane holds, so the worker also waits on the
            // helper.
            for e in 0..exchanges {
                let len = script.gen_range(200..700);
                run(&mut pairs, &mut script, e, len)?;
            }
            for r in 0..12 {
                if r == 4 {
                    let (ahead, plain) = &mut pairs[1];
                    ahead.reseed_bids(seed ^ 0x5eed);
                    plain.reseed_bids(seed ^ 0x5eed);
                }
                if r == 8 {
                    // Drops the lane without touching the stream, which
                    // may hold a banked spare the new lane must start from.
                    let (ahead, plain) = &mut pairs[exchanges - 1];
                    ahead.set_floors(PriceFloors::none());
                    plain.set_floors(PriceFloors::none());
                    prop_assert!(ahead.lane.is_none());
                }
                let e = script.gen_range(0..exchanges);
                let len = script.gen_range(1..700);
                run(&mut pairs, &mut script, e, len)?;
            }
            let mut missed = Vec::new();
            for (e, (ahead, _)) in pairs.iter().enumerate() {
                let fallbacks = ahead.ahead_fallbacks;
                prop_assert!(fallbacks <= u64::from(starved && e == 0), "lane {}", e);
                prop_assert_eq!(ahead.ahead_auctions + fallbacks, ahead.auctions_run, "lane {}", e);
                missed.push(fallbacks);
            }
            if starved {
                prop_assert!(pairs[0].0.ahead_reanchors > 0);
            }
            // Every lane ends within a batch of the sampler's drop.
            drop(sampler);
            for e in 0..exchanges {
                run(&mut pairs, &mut script, e, 300)?;
            }
            for (e, (ahead, _)) in pairs.iter().enumerate() {
                prop_assert!(ahead.lane.is_none() && ahead.sampler.is_none(), "lane {}", e);
                prop_assert_eq!(ahead.ahead_fallbacks, missed[e] + 1, "lane {}", e);
            }
        }
    }

    #[test]
    fn auction_charges_second_price() {
        // Two deterministic-ish campaigns with very different price levels:
        // the high bidder wins and pays near the low bidder's bid.
        let campaigns = vec![
            Campaign {
                id: CampaignId(0),
                budget: 100.0,
                bid: BidModel {
                    mean_price: 0.010,
                    cv: 0.01,
                    participation: 1.0,
                    target_category: None,
                },
            },
            Campaign {
                id: CampaignId(1),
                budget: 100.0,
                bid: BidModel {
                    mean_price: 0.001,
                    cv: 0.01,
                    participation: 1.0,
                    target_category: None,
                },
            },
        ];
        let mut ex = Exchange::new(campaigns, 42);
        for _ in 0..50 {
            let sold = ex.run_auction(&rt_slot()).expect("always fills");
            assert_eq!(sold.campaign, CampaignId(0));
            assert!(
                (sold.price - 0.001).abs() < 0.0005,
                "price {} should track the loser's bid",
                sold.price
            );
        }
    }

    #[test]
    fn single_bidder_pays_reserve() {
        let campaigns = vec![Campaign {
            id: CampaignId(0),
            budget: 10.0,
            bid: BidModel {
                mean_price: 0.005,
                cv: 0.1,
                participation: 1.0,
                target_category: None,
            },
        }];
        let mut ex = Exchange::new(campaigns, 1);
        let sold = ex.run_auction(&rt_slot()).unwrap();
        assert!((sold.price - ex.reserve_price).abs() < 1e-12);
    }

    #[test]
    fn empty_exchange_fills_nothing() {
        let mut ex = Exchange::new(Vec::new(), 1);
        assert!(ex.run_auction(&rt_slot()).is_none());
        assert_eq!(ex.fill_rate(), 0.0);
    }

    #[test]
    fn advance_slots_get_discounted() {
        let mk = || Exchange::new(CampaignCatalog::synthetic(30, 5).into_campaigns(), 5);
        let mut rt = mk();
        let mut adv = mk();
        let n = 2_000;
        let mut rt_rev = 0.0;
        let mut adv_rev = 0.0;
        for _ in 0..n {
            if let Some(s) = rt.run_auction(&rt_slot()) {
                rt_rev += s.price;
            }
            if let Some(s) =
                adv.run_auction(&SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(4)))
            {
                adv_rev += s.price;
            }
        }
        let ratio = adv_rev / rt_rev;
        assert!(
            (ratio - Exchange::DEFAULT_ADVANCE_DISCOUNT).abs() < 0.02,
            "ratio {ratio}"
        );
    }

    #[test]
    fn budgets_deplete_and_refunds_restore() {
        let campaigns = vec![Campaign {
            id: CampaignId(0),
            budget: 0.0005,
            bid: BidModel {
                mean_price: 0.004,
                cv: 0.05,
                participation: 1.0,
                target_category: None,
            },
        }];
        let mut ex = Exchange::new(campaigns, 8);
        // The campaign can't afford its own typical bid: no sale.
        assert!(ex.run_auction(&rt_slot()).is_none());
        ex.refund(CampaignId(0), 0.01);
        assert!(ex.run_auction(&rt_slot()).is_some());
    }

    #[test]
    fn ad_ids_are_unique_and_monotone() {
        let mut ex = Exchange::new(CampaignCatalog::synthetic(10, 3).into_campaigns(), 3);
        let mut last = None;
        for _ in 0..100 {
            if let Some(s) = ex.run_auction(&rt_slot()) {
                if let Some(prev) = last {
                    assert!(s.id > prev);
                }
                last = Some(s.id);
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn scale_budgets_partitions_spending_power() {
        let campaigns = CampaignCatalog::synthetic(20, 9).into_campaigns();
        let total: f64 = campaigns.iter().map(|c| c.budget).sum();
        let mut ex = Exchange::new(campaigns, 9);
        ex.scale_budgets(0.25);
        assert!((ex.total_budget() - total * 0.25).abs() < 1e-6);
        // The unsharded fraction is a no-op.
        let before = ex.total_budget();
        ex.scale_budgets(1.0);
        assert_eq!(ex.total_budget(), before);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn scale_budgets_rejects_zero() {
        let mut ex = Exchange::new(Vec::new(), 1);
        ex.scale_budgets(0.0);
    }

    #[test]
    fn reseed_bids_restarts_the_stream() {
        let mk = || Exchange::new(CampaignCatalog::synthetic(15, 4).into_campaigns(), 4);
        let run20 = |ex: &mut Exchange| -> Vec<(CampaignId, u64)> {
            (0..20)
                .filter_map(|_| ex.run_auction(&rt_slot()))
                .map(|s| (s.campaign, (s.price * 1e9) as u64))
                .collect()
        };
        let mut a = mk();
        let baseline = run20(&mut a);
        // A fresh exchange reseeded with its construction seed replays
        // the same stream.
        let mut b = mk();
        b.reseed_bids(4);
        assert_eq!(run20(&mut b), baseline);
        // A different stream seed produces different auction outcomes.
        let mut c = mk();
        c.reseed_bids(0xdead_beef);
        assert_ne!(run20(&mut c), baseline);
    }

    #[test]
    fn fill_rate_tracks_outcomes() {
        let mut ex = Exchange::new(CampaignCatalog::synthetic(25, 11).into_campaigns(), 11);
        for _ in 0..500 {
            ex.run_auction(&rt_slot());
        }
        assert_eq!(ex.auctions_run(), 500);
        assert!(ex.fill_rate() > 0.9, "fill {}", ex.fill_rate());
    }
}
