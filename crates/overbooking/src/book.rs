//! The ad book: one record per sold ad, from its sale to its first
//! display or its expiry.
//!
//! The advertiser pays for exactly one display by the deadline (the
//! paper's billing policy); an ad no holder shows in time expires, an SLA
//! violation, and is refunded. Replication makes duplicate displays
//! *possible* — they consume slots that could have shown other paid ads,
//! the "revenue loss" the overbooking model must keep negligible — and
//! reconciliation keeps them *rare*: the first reported display queues a
//! cancellation for every other holder, so only holders that show the ad
//! inside the sync delay produce a real duplicate.
//!
//! Ad ids come from a monotone counter and settle in rough id order, so
//! the book is two [`IdDeque`]s, not hash maps. `states` keeps one byte
//! per ad for the whole run: a display reported long after settlement
//! must still come back [`Shown::Duplicate`] or [`Shown::Late`]. `open`
//! maps each pending ad to its [`Record`] in a dense slab and trims its
//! settled ends. One unshown ad pins the window open until its deadline,
//! so the window spans every id sold since; it costs 4 bytes an id, and
//! the records themselves are held for the pending ads alone.

use std::collections::VecDeque;

use adpf_auction::{AdId, CampaignId, SoldAd};
use adpf_desim::{IdDeque, InlineVec, SimTime};
use adpf_obs::MetricRegistry;

use crate::planner::PLAN_INLINE;

/// Lifecycle state of one sold ad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdState {
    /// Sold, not yet displayed: its record is open.
    Pending,
    /// Displayed before its deadline (billed).
    Displayed,
    /// Deadline passed without a display (SLA violation; refunded).
    Expired,
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
    /// Accumulates another book's totals into this one.
    ///
    /// Every field is additive, so merging the per-shard books of a
    /// sharded run (in shard order, which fixes the floating-point
    /// summation order) reproduces the totals a single global book
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

/// One open advance sale: its terms and the clients holding a copy.
/// Handed back whole when it closes, so the caller can release the
/// holders and, on expiry, refund the payer.
#[derive(Debug, PartialEq)]
pub struct Record {
    pub id: AdId,
    /// The paying campaign.
    pub campaign: CampaignId,
    /// Clearing price: billed on a display in time, refunded on expiry.
    pub price: f64,
    deadline: SimTime,
    /// Holders in placement order, the primary first; inline up to
    /// [`PLAN_INLINE`], past which (a rescue may push one) the vec spills.
    pub holders: InlineVec<u32, PLAN_INLINE>,
    /// Whether a rescue replica was added; at most one per ad keeps the
    /// worst-case duplicate exposure bounded.
    rescued: bool,
}

/// What a reported display did.
#[derive(Debug, PartialEq)]
pub enum Shown {
    /// The first display, in time: billed, a cancellation queued for
    /// every other holder, and the record closed.
    Billed(Record),
    /// The first report of an open ad, past its deadline (the sweep had
    /// not reached it yet): settled as an expiry, and the record closed
    /// for its refund.
    Expired(Record),
    /// The ad was already billed: a residual duplicate of replication.
    Duplicate,
    /// The ad had already expired: shown too late to bill.
    Late,
    /// No ad of this id was sold in advance.
    Unknown,
}

/// Every sold ad from sale to display or expiry: billing totals, replica
/// holders, deadline rescue and cancellation queues in one book.
#[derive(Debug, Default)]
pub struct AdBook {
    /// State of every id sold in advance; `None` marks any other id.
    states: IdDeque<Option<AdState>>,
    /// Where each pending ad's record sits in `records`, plus one; 0
    /// marks closed or unsold ids. Trimmed at both ends as records close.
    open: IdDeque<u32>,
    /// The open records, in no order: a closed one is swapped out for
    /// the last.
    records: Vec<Record>,
    /// `(deadline, ad)` of every record that can expire, ascending by
    /// deadline. Entries of ads displayed since are dropped when reached.
    due: VecDeque<(SimTime, u64)>,
    /// Queued cancellation hints, indexed by dense client id.
    pending_cancel: Vec<Vec<u64>>,
    totals: LedgerTotals,
    /// Sales billed on the spot ([`AdBook::bill_now`]); every other sale
    /// opened a record.
    sold_now: u64,
    /// Replica holders registered beyond the primary.
    replicas_registered: u64,
    /// Deadline rescues that added a holder.
    rescues: u64,
    /// Rescue attempts refused (closed/already rescued/holder already).
    rescues_refused: u64,
    /// Cancellation hints queued for losing holders.
    cancellations_queued: u64,
    /// High-water mark of open records.
    peak_open: u64,
}

impl AdBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the record of an ad sold in advance and placed on
    /// `holders`, the primary first.
    pub fn sell(&mut self, sold: &SoldAd, holders: &[u32]) {
        let id = sold.id.0;
        debug_assert!(self.state(sold.id).is_none(), "ad {id} sold twice");
        debug_assert!(!holders.is_empty(), "ad {id} placed on no client");
        *self.states.entry(id) = Some(AdState::Pending);
        self.records.push(Record {
            id: sold.id,
            campaign: sold.campaign,
            price: sold.price,
            deadline: sold.deadline,
            holders: InlineVec::from_slice(holders),
            rescued: false,
        });
        *self.open.entry(id) = u32::try_from(self.records.len()).expect("open records fit a u32");
        self.peak_open = self.peak_open.max(self.records.len() as u64);
        // `expire_due` tests `deadline < now`, which `MAX` never passes.
        if sold.deadline != SimTime::MAX {
            match self.due.back() {
                Some(&(last, _)) if sold.deadline < last => {
                    let at = self.due.partition_point(|&(d, _)| d <= sold.deadline);
                    self.due.insert(at, (sold.deadline, id));
                }
                _ => self.due.push_back((sold.deadline, id)),
            }
        }
        self.totals.sold += 1;
        self.totals.sold_value += sold.price;
        self.replicas_registered += holders.len() as u64 - 1;
    }

    /// Bills a real-time sale, shown as it is sold: it opens no record.
    pub fn bill_now(&mut self, sold: &SoldAd) {
        self.sold_now += 1;
        self.totals.sold += 1;
        self.totals.sold_value += sold.price;
        self.totals.billed += 1;
        self.totals.revenue += sold.price;
    }

    /// Where the open record of `id` sits in `records`, if it has one.
    fn slab_index(&self, id: u64) -> Option<usize> {
        (*self.open.get(id)? as usize).checked_sub(1)
    }

    /// The open record of `id`, if it has one.
    fn record(&self, id: u64) -> Option<&Record> {
        self.slab_index(id).map(|i| &self.records[i])
    }

    /// Closes the open record of `id`, leaving `state` behind.
    fn close(&mut self, id: u64, state: AdState) -> Record {
        self.states[id] = Some(state);
        let i = self.slab_index(id).expect("a pending ad has a record");
        self.open[id] = 0;
        let record = self.records.swap_remove(i);
        // The last record took the closed one's place.
        if let Some(moved) = self.records.get(i) {
            self.open[moved.id.0] = i as u32 + 1;
        }
        self.open.trim_front(|_, &at| at == 0);
        self.open.trim_back(|&at| at == 0);
        record
    }

    /// Reports that `client` displayed `ad` at `at`; see [`Shown`]. A
    /// closed record comes back for the caller to release its holders
    /// (and, when expired, refund its payer).
    pub fn report(&mut self, ad: AdId, client: u32, at: SimTime) -> Shown {
        let id = ad.0;
        match self.state(ad) {
            None => Shown::Unknown,
            Some(AdState::Displayed) => {
                self.totals.duplicates += 1;
                Shown::Duplicate
            }
            Some(AdState::Expired) => {
                self.totals.late_displays += 1;
                Shown::Late
            }
            Some(AdState::Pending) if self.record(id).is_some_and(|r| at <= r.deadline) => {
                let record = self.close(id, AdState::Displayed);
                self.totals.billed += 1;
                self.totals.revenue += record.price;
                for &h in &record.holders {
                    if h != client {
                        let hi = h as usize;
                        if hi >= self.pending_cancel.len() {
                            self.pending_cancel.resize_with(hi + 1, Vec::new);
                        }
                        self.pending_cancel[hi].push(id);
                        self.cancellations_queued += 1;
                    }
                }
                Shown::Billed(record)
            }
            Some(AdState::Pending) => {
                let record = self.close(id, AdState::Expired);
                self.totals.expired += 1;
                self.totals.refunded += record.price;
                self.totals.late_displays += 1;
                Shown::Expired(record)
            }
        }
    }

    /// Expires every open record whose deadline is before `now` and
    /// replaces the contents of `out` with them, in ad-id order, for the
    /// caller to refund and release.
    ///
    /// Costs time in the sales whose deadline passed since the last
    /// sweep, not in the book's size.
    pub fn expire_due(&mut self, now: SimTime, out: &mut Vec<Record>) {
        out.clear();
        while let Some(&(deadline, id)) = self.due.front() {
            if deadline >= now {
                break;
            }
            self.due.pop_front();
            if self.states[id] == Some(AdState::Pending) {
                out.push(self.close(id, AdState::Expired));
            }
        }
        // The queue is in deadline order; refunds are summed in id order,
        // which fixes the floating-point total whatever the deadlines.
        out.sort_unstable_by_key(|r| r.id);
        for r in out.iter() {
            self.totals.expired += 1;
            self.totals.refunded += r.price;
        }
    }

    /// Adds `client` as an extra (rescue) holder of `ad`.
    ///
    /// Returns `false` — and changes nothing — when the ad has no open
    /// record, was already rescued once, or `client` already holds it.
    pub fn rescue_to(&mut self, ad: AdId, client: u32) -> bool {
        match self.slab_index(ad.0).map(|i| &mut self.records[i]) {
            Some(r) if !r.rescued && !r.holders.contains(&client) => {
                r.holders.push(client);
                r.rescued = true;
                self.rescues += 1;
                true
            }
            _ => {
                self.rescues_refused += 1;
                false
            }
        }
    }

    /// Appends `(ad, deadline)` to `out` for every open record not yet
    /// rescued and due before `t`, in ascending ad-id order.
    pub fn unrescued_due_before(&self, t: SimTime, out: &mut Vec<(AdId, SimTime)>) {
        for (_, &at) in self.open.iter() {
            if let Some(r) = (at as usize).checked_sub(1).map(|i| &self.records[i]) {
                if !r.rescued && r.deadline < t {
                    out.push((r.id, r.deadline));
                }
            }
        }
    }

    /// Clients holding `ad`, while its record is open.
    pub fn holders(&self, ad: AdId) -> Option<&[u32]> {
        self.record(ad.0).map(|r| r.holders.as_slice())
    }

    /// Appends `client`'s queued cancellations to `out` and clears the
    /// queue in place, keeping its allocation for reuse — called when
    /// the client syncs.
    pub fn drain_cancellations(&mut self, client: u32, out: &mut Vec<u64>) {
        if let Some(q) = self.pending_cancel.get_mut(client as usize) {
            out.extend_from_slice(q);
            q.clear();
        }
    }

    /// State of an ad sold in advance.
    pub fn state(&self, ad: AdId) -> Option<AdState> {
        self.states.get(ad.0).copied().flatten()
    }

    /// Current totals.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }

    /// Number of open records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no record is open.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Publishes the churn and reconciliation counters and the
    /// open-record high-water mark. Every sale but a real-time one opened
    /// a record, and every billed one of those was a first display.
    pub fn publish(&self, reg: &MetricRegistry) {
        let t = &self.totals;
        reg.add("overbooking.ads_registered", t.sold - self.sold_now);
        reg.add("overbooking.replicas_registered", self.replicas_registered);
        reg.add("overbooking.rescues", self.rescues);
        reg.add("overbooking.rescues_refused", self.rescues_refused);
        reg.add("overbooking.first_displays", t.billed - self.sold_now);
        reg.add("overbooking.duplicate_displays", t.duplicates);
        reg.add(
            "overbooking.cancellations_queued",
            self.cancellations_queued,
        );
        reg.gauge_max("overbooking.peak_tracked", self.peak_open);
    }

    /// Counts into `audit.book.*` every way the settled book disagrees
    /// with itself or with its caller, who released `claims_released`
    /// holder claims and handed the exchange refunds summing to
    /// `refunded` (in the order handed). A name registers only when its
    /// count is nonzero, so a clean run's registry does not change.
    pub fn audit(&self, reg: &MetricRegistry, claims_released: u64, refunded: f64) {
        let t = &self.totals;
        // One claim per holder: each record's primary, its replicas and
        // its rescue.
        let claims = t.sold - self.sold_now + self.replicas_registered + self.rescues;
        let unsettled = t.sold.abs_diff(t.billed + t.expired);
        let unreleased = claims.abs_diff(claims_released);
        let drift = u64::from(refunded.to_bits() != t.refunded.to_bits());
        for (name, count) in [
            ("audit.book.open_records", self.records.len() as u64),
            ("audit.book.unsettled", unsettled),
            ("audit.book.claims_unreleased", unreleased),
            ("audit.book.refund_drift", drift),
        ] {
            if count > 0 {
                reg.add(name, count);
            }
        }
    }
}

/// Benchmark shim; deleted once `benchmark/` rebinds.
pub type ReplicaTracker = AdBook;

impl AdBook {
    /// Benchmark shim; deleted once `benchmark/` rebinds. Sells a free
    /// ad `ad` on `holders`, due by `deadline`.
    pub fn register(&mut self, ad: u64, holders: &[u32], deadline: SimTime) {
        self.sell(
            &SoldAd {
                id: AdId(ad),
                campaign: CampaignId(0),
                price: 0.0,
                winning_bid: 0.0,
                deadline,
                sold_at: SimTime::ZERO,
            },
            holders,
        );
    }

    /// Benchmark shim; deleted once `benchmark/` rebinds. Reports the
    /// display at time zero, inside every deadline.
    pub fn record_display(&mut self, ad: u64, client: u32) -> Shown {
        self.report(AdId(ad), client, SimTime::ZERO)
    }

    /// Benchmark shim; deleted once `benchmark/` rebinds. A record closes
    /// itself, so there is nothing to remove.
    pub fn remove(&mut self, _ad: u64) {}
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

    /// Sells ad `id` at a price of 0.002 on `holders`, due by `deadline_h`.
    fn sell(b: &mut AdBook, id: u64, holders: &[u32], deadline_h: u64) {
        b.sell(&sold(id, 0.002, deadline_h), holders);
    }

    /// Reports `client`'s display of `id` at `at_h`: the holders handed
    /// back when it closed a record, else the outcome.
    fn report(b: &mut AdBook, id: u64, client: u32, at_h: u64) -> Result<Vec<u32>, Shown> {
        match b.report(AdId(id), client, SimTime::from_hours(at_h)) {
            Shown::Billed(r) | Shown::Expired(r) => Ok(r.holders.to_vec()),
            other => Err(other),
        }
    }

    /// `client`'s queued cancellations, consumed.
    fn drained(b: &mut AdBook, client: u32) -> Vec<u64> {
        let mut out = Vec::new();
        b.drain_cancellations(client, &mut out);
        out
    }

    fn expire(b: &mut AdBook, now_h: u64) -> Vec<Record> {
        let mut out = Vec::new();
        b.expire_due(SimTime::from_hours(now_h), &mut out);
        out
    }

    #[test]
    fn first_display_bills_once_and_cancels_the_other_holders() {
        let mut b = AdBook::new();
        sell(&mut b, 7, &[1, 2, 3], 2);
        sell(&mut b, 9, &[4, 1], 2);
        // Exactly at the deadline is still in time.
        assert_eq!(report(&mut b, 7, 2, 2), Ok(vec![1, 2, 3]));
        assert_eq!(report(&mut b, 7, 3, 2), Err(Shown::Duplicate));
        assert_eq!(b.state(AdId(7)), Some(AdState::Displayed));
        // Every other holder hears of a first display once, queued across
        // ads until it syncs; the reporter hears nothing.
        assert_eq!(report(&mut b, 9, 4, 1), Ok(vec![4, 1]));
        assert_eq!(
            (drained(&mut b, 1), drained(&mut b, 3)),
            (vec![7, 9], vec![7])
        );
        assert!(drained(&mut b, 2).is_empty() && drained(&mut b, 4).is_empty());
        assert!(drained(&mut b, 1).is_empty(), "drain consumes the queue");
        assert!(drained(&mut b, 999).is_empty());
        let t = b.totals();
        assert_eq!((t.billed, t.duplicates, t.revenue), (2, 1, 0.004));
        assert_eq!(t.sla_violation_rate(), 0.0);
    }

    #[test]
    fn expiry_refunds_pending_ads_in_id_order() {
        let mut b = AdBook::new();
        b.sell(&sold(2, 0.003, 1), &[3]);
        b.sell(&sold(1, 0.001, 2), &[1, 2]);
        b.sell(&sold(3, 0.005, 10), &[4]);
        let refunds = expire(&mut b, 5);
        let got: Vec<(AdId, f64)> = refunds.iter().map(|r| (r.id, r.price)).collect();
        assert_eq!(got, [(AdId(1), 0.001), (AdId(2), 0.003)]);
        assert_eq!(refunds[0].holders.as_slice(), &[1, 2]);
        let t = b.totals();
        assert_eq!((t.expired, t.refunded), (2, 0.001 + 0.003));
        assert!((t.sla_violation_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(b.state(AdId(3)), Some(AdState::Pending));
        // A display after expiry is late, and expires nothing twice.
        assert_eq!(report(&mut b, 1, 1, 6), Err(Shown::Late));
        assert_eq!((b.totals().expired, b.totals().late_displays), (2, 1));
    }

    #[test]
    fn a_late_first_report_settles_through_the_expiry_path() {
        // Reported past its deadline before any sweep reached it: the
        // record comes back for its refund and holders, exactly as the
        // sweep would have handed it, and the sweep does not refund it
        // a second time.
        let mut b = AdBook::new();
        b.sell(&sold(4, 0.003, 1), &[7, 8]);
        let Shown::Expired(r) = b.report(AdId(4), 8, SimTime::from_hours(2)) else {
            panic!("a late first report settles as an expiry");
        };
        assert_eq!((r.id, r.campaign, r.price), (AdId(4), CampaignId(1), 0.003));
        assert_eq!(r.holders.as_slice(), &[7, 8]);
        assert!(b.is_empty());
        assert!(drained(&mut b, 7).is_empty(), "an expiry cancels nothing");
        assert!(expire(&mut b, 5).is_empty());
        let t = b.totals();
        assert_eq!((t.billed, t.revenue), (0, 0.0));
        assert_eq!((t.expired, t.late_displays, t.refunded), (1, 1, 0.003));
        assert_eq!(report(&mut b, 4, 7, 3), Err(Shown::Late));
    }

    #[test]
    fn realtime_and_unknown_ads_have_no_record() {
        let mut b = AdBook::new();
        // Regression: nothing sold is a 0.0 violation rate, not NaN.
        assert_eq!(b.totals().sla_violation_rate(), 0.0);
        assert_eq!(report(&mut b, 99, 1, 0), Err(Shown::Unknown));
        assert_eq!(b.state(AdId(99)), None);
        b.bill_now(&sold(3, 0.004, 0));
        let t = b.totals();
        assert_eq!((t.sold, t.billed, t.revenue), (1, 1, t.sold_value));
        assert!(b.is_empty());
        assert_eq!(report(&mut b, 3, 1, 0), Err(Shown::Unknown));
    }

    #[test]
    fn merged_totals_match_a_single_book() {
        // Split the same activity across two books; the merged totals
        // equal one book seeing everything.
        let mut books = [AdBook::new(), AdBook::new(), AdBook::new()];
        for i in 0..8u64 {
            let ad = sold(i, 0.001 * (i + 1) as f64, if i % 3 == 0 { 1 } else { 50 });
            for b in [0, 1 + i as usize % 2] {
                books[b].sell(&ad, &[1]);
                if [1, 2, 5].contains(&i) {
                    report(&mut books[b], i, 1, 2).unwrap();
                }
            }
        }
        let [whole, left, right] = books.map(|mut b| {
            expire(&mut b, 10);
            b.totals()
        });
        let (mut m, w) = (left, whole);
        m.merge(&right);
        assert_eq!((m.sold, m.billed, m.expired), (w.sold, w.billed, w.expired));
        let near = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(near(m.revenue, w.revenue) && near(m.refunded, w.refunded));
        assert!(near(m.sold_value, w.sold_value));
    }

    #[test]
    fn a_displayed_ad_leaves_the_open_set() {
        let mut b = AdBook::new();
        sell(&mut b, 1, &[1, 2], 1);
        sell(&mut b, 2, &[3], 1);
        assert_eq!(b.len(), 2);
        report(&mut b, 1, 2, 0).unwrap();
        assert_eq!(b.len(), 1, "the billed ad's record closed");
        assert_eq!(b.holders(AdId(1)), None);
        report(&mut b, 2, 3, 0).unwrap();
        assert!(b.is_empty());
        // Nothing is left for the rescue scan, however late it looks.
        let mut due = Vec::new();
        b.unrescued_due_before(SimTime::MAX, &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn rescue_adds_one_holder_to_a_due_open_record() {
        let mut b = AdBook::new();
        assert!(!b.rescue_to(AdId(99), 1), "no record");
        sell(&mut b, 5, &[1], 1);
        report(&mut b, 5, 1, 0).unwrap();
        assert!(!b.rescue_to(AdId(5), 2), "displayed");
        sell(&mut b, 7, &[1, 2], 1);
        sell(&mut b, 8, &[3], 2);
        b.sell(&sold(9, 0.002, 0), &[4]);
        let (mut due, zero) = (Vec::new(), SimTime::ZERO);
        b.unrescued_due_before(SimTime::from_mins(90), &mut due);
        assert_eq!(due, [(AdId(7), SimTime::from_hours(1)), (AdId(9), zero)]);
        assert!(!b.rescue_to(AdId(7), 1), "already a holder");
        assert!(b.rescue_to(AdId(7), 3));
        assert!(!b.rescue_to(AdId(7), 4), "at most one rescue per ad");
        assert_eq!(b.holders(AdId(7)), Some(&[1, 2, 3][..]));
        due.clear();
        b.unrescued_due_before(SimTime::from_mins(90), &mut due);
        assert_eq!(due, [(AdId(9), zero)]);
        // A rescue holder that displays first cancels the others, and
        // all three are released.
        assert_eq!(report(&mut b, 7, 3, 0), Ok(vec![1, 2, 3]));
        assert_eq!((drained(&mut b, 1), drained(&mut b, 2)), (vec![7], vec![7]));
    }

    #[test]
    fn counters_track_churn_and_reconciliation() {
        let mut b = AdBook::new();
        sell(&mut b, 1, &[1, 2, 3], 1);
        sell(&mut b, 2, &[4], 1);
        b.bill_now(&sold(3, 0.002, 0));
        assert!(b.rescue_to(AdId(2), 5));
        assert!(!b.rescue_to(AdId(2), 6)); // second rescue refused
        report(&mut b, 1, 2, 0).unwrap(); // cancels holders 1 and 3
        report(&mut b, 1, 3, 0).unwrap_err(); // duplicate
        report(&mut b, 99, 1, 0).unwrap_err(); // unknown: counted nowhere
        expire(&mut b, 2);
        let reg = MetricRegistry::new();
        b.publish(&reg);
        for (name, want) in [
            ("overbooking.ads_registered", 2),
            ("overbooking.replicas_registered", 2),
            ("overbooking.rescues", 1),
            ("overbooking.rescues_refused", 1),
            ("overbooking.first_displays", 1),
            ("overbooking.duplicate_displays", 1),
            ("overbooking.cancellations_queued", 2),
        ] {
            assert_eq!(reg.counter_value(name), want, "{name}");
        }
        // Both advance records were open at once; the real-time sale
        // never opened one.
        assert_eq!(reg.gauge_value("overbooking.peak_tracked"), 2);
    }

    #[test]
    fn the_open_window_slides_over_gapped_and_backward_ids() {
        // Real-time sales consume ids without opening records, so the
        // open id stream is monotone with gaps; closing at either end or
        // inside must leave the window addressing the rest.
        let mut b = AdBook::new();
        for ad in [13u64, 14, 20, 10] {
            sell(&mut b, ad, &[ad as u32], 1);
        }
        for (ad, open) in [(10, 3), (20, 2), (13, 1), (14, 0)] {
            report(&mut b, ad, 0, 0).unwrap();
            assert_eq!(b.len(), open);
        }
        assert_eq!(b.holders(AdId(14)), None);
        // The arena keeps working after draining completely, and a
        // settled ad still reads as settled.
        sell(&mut b, 31, &[2], 2);
        assert_eq!(b.holders(AdId(31)), Some(&[2][..]));
        assert_eq!(report(&mut b, 13, 1, 0), Err(Shown::Duplicate));
    }

    #[test]
    fn record_storage_tracks_open_records_only() {
        // Ad 0 is never shown, so it pins the id window open behind the
        // 10,000 ads sold and shown after it; only its record stays.
        let mut b = AdBook::new();
        sell(&mut b, 0, &[1], 12);
        for id in 1..10_000 {
            sell(&mut b, id, &[2, 3], 12);
            if id % 2 == 0 {
                report(&mut b, id - 1, 2, 0).unwrap();
                report(&mut b, id, 3, 0).unwrap();
            }
        }
        sell(&mut b, 10_000, &[4], 12);
        assert_eq!(b.open.iter().count(), 10_001);
        assert_eq!((b.len(), b.records.len()), (3, 3));
        assert!(b.records.capacity() < 16, "{}", b.records.capacity());
        // Closing out of slab order keeps every index right.
        assert_eq!(b.holders(AdId(9_999)), Some(&[2, 3][..]));
        assert_eq!(report(&mut b, 0, 1, 0), Ok(vec![1]));
        assert_eq!(b.holders(AdId(10_000)), Some(&[4][..]));
        assert_eq!(report(&mut b, 9_999, 3, 0), Ok(vec![2, 3]));
        assert_eq!(report(&mut b, 10_000, 4, 0), Ok(vec![4]));
        assert!(b.is_empty() && b.open.iter().next().is_none());
    }

    #[test]
    fn the_audit_registers_only_violations() {
        let mut b = AdBook::new();
        sell(&mut b, 1, &[1, 2], 1);
        b.sell(&sold(2, 0.1, 1), &[3]);
        b.rescue_to(AdId(2), 4);
        report(&mut b, 1, 1, 0).unwrap();
        let expired = expire(&mut b, 2);
        let clean = MetricRegistry::new();
        b.audit(&clean, 4, expired[0].price);
        assert!(clean.is_empty(), "{:?}", clean.snapshot());
        // Ad 3 still open, its claim and one of ad 1's unreleased, and
        // ad 2's refund never handed over.
        sell(&mut b, 3, &[5], 9);
        let reg = MetricRegistry::new();
        b.audit(&reg, 3, 0.0);
        assert_eq!(reg.counter_value("audit.book.open_records"), 1);
        assert_eq!(reg.counter_value("audit.book.unsettled"), 1);
        assert_eq!(reg.counter_value("audit.book.claims_unreleased"), 2);
        assert_eq!(reg.counter_value("audit.book.refund_drift"), 1);
    }
}
