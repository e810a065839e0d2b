//! Impression billing and SLA tracking.

use std::collections::VecDeque;

use adpf_desim::{IdDeque, SimTime};

use crate::campaign::CampaignId;
use crate::exchange::{AdId, SoldAd};

/// Lifecycle state of one sold ad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdState {
    /// Sold, not yet displayed.
    Pending,
    /// Displayed before its deadline (billed).
    Displayed,
    /// Deadline passed without a display (SLA violation; refunded).
    Expired,
}

/// Outcome of reporting an impression to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpressionOutcome {
    /// First in-deadline display: the advertiser is billed.
    Billed,
    /// The ad had already been displayed elsewhere (replication duplicate):
    /// the impression is wasted inventory.
    Duplicate,
    /// Displayed after the deadline: wasted, and the SLA was already
    /// counted as violated.
    Late,
    /// The ad id is unknown to the ledger.
    Unknown,
}

/// What settling a pending ad needs; read only while the ad is pending.
#[derive(Debug, Clone, Copy)]
struct Sale {
    campaign: CampaignId,
    price: f64,
    deadline: SimTime,
}

impl Default for Sale {
    /// Filler for window positions whose ad was never sold or has settled.
    fn default() -> Self {
        Sale {
            campaign: CampaignId(0),
            price: 0.0,
            deadline: SimTime::ZERO,
        }
    }
}

/// Aggregate billing totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerTotals {
    /// Ads sold.
    pub sold: u64,
    /// Ads billed (displayed in time).
    pub billed: u64,
    /// Billed revenue, in currency units.
    pub revenue: f64,
    /// Value of ads sold (what revenue would be with zero expirations).
    pub sold_value: f64,
    /// SLA violations (sold ads that expired undisplayed).
    pub expired: u64,
    /// Refunded value of expired ads.
    pub refunded: f64,
    /// Duplicate displays caused by replication.
    pub duplicates: u64,
    /// Displays that arrived after the deadline.
    pub late_displays: u64,
}

impl LedgerTotals {
    /// Accumulates another ledger's totals into this one.
    ///
    /// Every field is additive, so merging the per-shard ledgers of a
    /// sharded run (in shard order, which fixes the floating-point
    /// summation order) reproduces the totals a single global ledger
    /// would have recorded for the same sales and displays.
    pub fn merge(&mut self, other: &LedgerTotals) {
        self.sold += other.sold;
        self.billed += other.billed;
        self.revenue += other.revenue;
        self.sold_value += other.sold_value;
        self.expired += other.expired;
        self.refunded += other.refunded;
        self.duplicates += other.duplicates;
        self.late_displays += other.late_displays;
    }

    /// SLA violation rate: expired / sold; `0.0` when nothing was sold.
    pub fn sla_violation_rate(&self) -> f64 {
        if self.sold == 0 {
            0.0
        } else {
            self.expired as f64 / self.sold as f64
        }
    }
}

/// Tracks every sold ad from sale to display or expiration.
///
/// Billing policy (the paper's): the advertiser pays for exactly one
/// in-deadline display. Replication may cause additional displays on other
/// clients; those are *not* billed — they consume client slots that could
/// have shown other paid ads, which is precisely the "revenue loss" the
/// overbooking model must keep negligible.
///
/// Storage is two [`IdDeque`]s (as in `ReplicaTracker`) rather than a
/// hash map. `states` keeps one byte per ad for good: a display reported
/// long after settlement must still come back `Duplicate` or `Late`,
/// never `Unknown`. `sales` holds price, payer and deadline, which only a
/// *pending* ad needs, so its front advances as the oldest ads settle and
/// it spans the open deadline window, not the whole run. Ids may be sold in any order and with gaps; each deque
/// spans from the lowest to the highest id it holds, gaps included.
#[derive(Debug, Default)]
pub struct Ledger {
    /// State of every ad ever sold; `None` marks an id never sold.
    states: IdDeque<Option<AdState>>,
    /// Sale terms. Every pending ad lies inside this window, and while it
    /// is non-empty its first ad is pending.
    sales: IdDeque<Sale>,
    /// `(deadline, ad)` of every sale that can expire, ascending by
    /// deadline. Entries of ads displayed since are dropped when reached.
    due: VecDeque<(SimTime, u64)>,
    totals: LedgerTotals,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sale.
    pub fn record_sale(&mut self, ad: &SoldAd) {
        let id = ad.id.0;
        debug_assert!(self.state(ad.id).is_none(), "ad {} sold twice", ad.id);
        *self.states.entry(id) = Some(AdState::Pending);
        *self.sales.entry(id) = Sale {
            campaign: ad.campaign,
            price: ad.price,
            deadline: ad.deadline,
        };
        // `expire_due` tests `deadline < now`, which `MAX` never passes.
        if ad.deadline != SimTime::MAX {
            match self.due.back() {
                Some(&(last, _)) if ad.deadline < last => {
                    let at = self.due.partition_point(|&(d, _)| d <= ad.deadline);
                    self.due.insert(at, (ad.deadline, id));
                }
                _ => self.due.push_back((ad.deadline, id)),
            }
        }
        self.totals.sold += 1;
        self.totals.sold_value += ad.price;
    }

    /// Drops the sale terms of every leading ad that is no longer
    /// pending, so `sales` spans only the ids still awaiting an outcome.
    fn retire_settled(&mut self) {
        let states = &self.states;
        self.sales
            .trim_front(|id, _| states.get(id) != Some(&Some(AdState::Pending)));
    }

    /// Reports a display of `ad` at `at`.
    pub fn record_impression(&mut self, ad: AdId, at: SimTime) -> ImpressionOutcome {
        let Some(state) = self.state(ad) else {
            return ImpressionOutcome::Unknown;
        };
        match state {
            AdState::Pending => {
                let sale = self.sales[ad.0];
                let outcome = if at <= sale.deadline {
                    self.states[ad.0] = Some(AdState::Displayed);
                    self.totals.billed += 1;
                    self.totals.revenue += sale.price;
                    ImpressionOutcome::Billed
                } else {
                    // The expiry sweep may not have run yet; settle it now.
                    self.states[ad.0] = Some(AdState::Expired);
                    self.totals.expired += 1;
                    self.totals.refunded += sale.price;
                    self.totals.late_displays += 1;
                    ImpressionOutcome::Late
                };
                self.retire_settled();
                outcome
            }
            AdState::Displayed => {
                self.totals.duplicates += 1;
                ImpressionOutcome::Duplicate
            }
            AdState::Expired => {
                self.totals.late_displays += 1;
                ImpressionOutcome::Late
            }
        }
    }

    /// Expires every pending ad whose deadline is before `now` and
    /// replaces the contents of `out` with `(ad, campaign, price)` for
    /// each, in ad-id order, so the exchange can refund.
    ///
    /// Costs time in the sales whose deadline passed since the last
    /// sweep, not in the ledger's size.
    pub fn expire_due(&mut self, now: SimTime, out: &mut Vec<(AdId, CampaignId, f64)>) {
        out.clear();
        while let Some(&(deadline, id)) = self.due.front() {
            if deadline >= now {
                break;
            }
            self.due.pop_front();
            if self.states[id] != Some(AdState::Pending) {
                continue;
            }
            let sale = self.sales[id];
            // The deadline re-check only matters for an id sold twice.
            if sale.deadline < now {
                self.states[id] = Some(AdState::Expired);
                out.push((AdId(id), sale.campaign, sale.price));
            }
        }
        // The queue is in deadline order; refunds are summed in id order,
        // which fixes the floating-point total whatever the deadlines.
        out.sort_unstable_by_key(|&(id, ..)| id);
        for &(_, _, price) in out.iter() {
            self.totals.expired += 1;
            self.totals.refunded += price;
        }
        self.retire_settled();
    }

    /// State of an ad, if known.
    pub fn state(&self, ad: AdId) -> Option<AdState> {
        self.states.get(ad.0).copied().flatten()
    }

    /// Current totals.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sold(id: u64, price: f64, deadline_h: u64) -> SoldAd {
        SoldAd {
            id: AdId(id),
            campaign: CampaignId(1),
            price,
            winning_bid: price,
            deadline: SimTime::from_hours(deadline_h),
            sold_at: SimTime::ZERO,
        }
    }

    #[test]
    fn first_display_bills_once() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 4));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(1)),
            ImpressionOutcome::Billed
        );
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(2)),
            ImpressionOutcome::Duplicate
        );
        let t = l.totals();
        assert_eq!(t.billed, 1);
        assert_eq!(t.duplicates, 1);
        assert!((t.revenue - 0.002).abs() < 1e-12);
        assert_eq!(t.sla_violation_rate(), 0.0);
    }

    #[test]
    fn expiry_refunds_pending_ads() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.001, 2));
        l.record_sale(&sold(2, 0.003, 10));
        let mut refunds = Vec::new();
        l.expire_due(SimTime::from_hours(5), &mut refunds);
        assert_eq!(refunds.len(), 1);
        assert_eq!(refunds[0].0, AdId(1));
        let t = l.totals();
        assert_eq!(t.expired, 1);
        assert!((t.refunded - 0.001).abs() < 1e-12);
        assert!((t.sla_violation_rate() - 0.5).abs() < 1e-12);
        assert_eq!(l.state(AdId(1)), Some(AdState::Expired));
        assert_eq!(l.state(AdId(2)), Some(AdState::Pending));
    }

    #[test]
    fn late_display_counts_as_violation_not_revenue() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 1));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(3)),
            ImpressionOutcome::Late
        );
        let t = l.totals();
        assert_eq!(t.billed, 0);
        assert_eq!(t.expired, 1);
        assert_eq!(t.late_displays, 1);
        assert_eq!(t.revenue, 0.0);
    }

    #[test]
    fn display_exactly_at_deadline_is_billed() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 2));
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(2)),
            ImpressionOutcome::Billed
        );
    }

    #[test]
    fn unknown_ads_are_flagged() {
        let mut l = Ledger::new();
        assert_eq!(
            l.record_impression(AdId(99), SimTime::ZERO),
            ImpressionOutcome::Unknown
        );
        assert_eq!(l.state(AdId(99)), None);
    }

    #[test]
    fn display_on_expired_ad_is_late() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 1));
        l.expire_due(SimTime::from_hours(2), &mut Vec::new());
        assert_eq!(
            l.record_impression(AdId(1), SimTime::from_hours(3)),
            ImpressionOutcome::Late
        );
        // Only one expiration counted even though a display also came late.
        assert_eq!(l.totals().expired, 1);
        assert_eq!(l.totals().late_displays, 1);
    }

    #[test]
    fn merged_totals_match_a_single_ledger() {
        // Split the same activity across two ledgers; the merged totals
        // equal one ledger seeing everything.
        let mut whole = Ledger::new();
        let mut left = Ledger::new();
        let mut right = Ledger::new();
        for i in 0..8 {
            let ad = sold(i, 0.001 * (i + 1) as f64, if i % 3 == 0 { 1 } else { 50 });
            whole.record_sale(&ad);
            if i % 2 == 0 { &mut left } else { &mut right }.record_sale(&ad);
        }
        for i in [1u64, 2, 5] {
            whole.record_impression(AdId(i), SimTime::from_hours(2));
            if i % 2 == 0 { &mut left } else { &mut right }
                .record_impression(AdId(i), SimTime::from_hours(2));
        }
        for l in [&mut whole, &mut left, &mut right] {
            l.expire_due(SimTime::from_hours(10), &mut Vec::new());
        }

        let mut merged = LedgerTotals::default();
        merged.merge(&left.totals());
        merged.merge(&right.totals());
        let w = whole.totals();
        assert_eq!(merged.sold, w.sold);
        assert_eq!(merged.billed, w.billed);
        assert_eq!(merged.expired, w.expired);
        assert!((merged.revenue - w.revenue).abs() < 1e-12);
        assert!((merged.refunded - w.refunded).abs() < 1e-12);
        assert!((merged.sold_value - w.sold_value).abs() < 1e-12);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut l = Ledger::new();
        l.record_sale(&sold(1, 0.002, 4));
        l.record_impression(AdId(1), SimTime::from_hours(1));
        let mut t = l.totals();
        t.merge(&LedgerTotals::default());
        assert_eq!(t, l.totals());
    }

    #[test]
    fn totals_conserve_value() {
        let mut l = Ledger::new();
        for i in 0..10 {
            l.record_sale(&sold(i, 0.001, if i % 2 == 0 { 1 } else { 100 }));
        }
        for i in 0..5 {
            l.record_impression(AdId(2 * i + 1), SimTime::from_hours(3));
        }
        l.expire_due(SimTime::from_hours(50), &mut Vec::new());
        let t = l.totals();
        assert!((t.revenue + t.refunded - t.sold_value).abs() < 1e-12);
        assert_eq!(t.billed + t.expired, t.sold);
    }
}
