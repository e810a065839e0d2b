//! Replica reconciliation: first-display wins, the rest get cancelled.
//!
//! Replication makes duplicates *possible*; the reconciliation protocol
//! keeps them *rare*. When a client reports a display at its next sync, the
//! server queues cancellations for every other holder of the same ad. A
//! holder that syncs before showing the ad drops it; only holders that show
//! the ad inside the sync delay produce a real duplicate. The end-to-end
//! simulator measures exactly that residual.
//!
//! The tracker stores its state in arenas rather than hash maps. Ad ids are
//! handed out by a monotone counter and ads expire in rough deadline order,
//! so live ads occupy a sliding window of the id space: an [`IdDeque`]
//! resolves every lookup with one subtraction instead of a hash, and the
//! window front advances as old ads are removed. Cancellation queues are
//! likewise a dense per-client `Vec` indexed by the simulator's `u32`
//! client handles.

use crate::planner::PLAN_INLINE;
use adpf_desim::{IdDeque, InlineVec, SimTime};
use adpf_obs::MetricRegistry;

/// Disposition of a reported display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisplayDisposition {
    /// First display of this ad anywhere.
    First,
    /// The ad had already been displayed by another client.
    Duplicate,
    /// The ad is not tracked (already removed or never registered).
    Unknown,
}

#[derive(Debug)]
struct AdReplicas {
    /// Holder ids stay inline: replica sets are at most
    /// `max_replicas + 1` clients, comfortably within [`PLAN_INLINE`]
    /// (a rescue may push one past the inline cap; the vec spills).
    holders: InlineVec<u32, PLAN_INLINE>,
    displayed_by: Option<u32>,
    /// Contract deadline, for dark-holder rescue scans.
    deadline: SimTime,
    /// Whether this ad already received a rescue replica; at most one
    /// rescue per ad keeps the worst-case duplicate exposure bounded.
    rescued: bool,
}

/// Lifetime totals of replica-pool churn and reconciliation outcomes.
/// Pure counts of simulated events — deterministic by construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrackerStats {
    /// Ads registered with the tracker.
    pub ads_registered: u64,
    /// Replica holders registered beyond the first per ad.
    pub replicas_registered: u64,
    /// Deadline rescues that added a holder.
    pub rescues: u64,
    /// Rescue attempts refused (untracked/displayed/already rescued/
    /// duplicate holder).
    pub rescues_refused: u64,
    /// First displays (each queues cancellations for the other holders).
    pub first_displays: u64,
    /// Residual duplicate displays.
    pub duplicate_displays: u64,
    /// Displays reported for untracked ads.
    pub unknown_displays: u64,
    /// Cancellation hints queued for losing holders.
    pub cancellations_queued: u64,
    /// Ads removed after their deadline passed.
    pub ads_removed: u64,
    /// High-water mark of concurrently tracked ads.
    pub peak_tracked: u64,
}

/// Tracks which clients hold replicas of which ads and queues
/// cancellations after the first display.
#[derive(Debug, Default)]
pub struct ReplicaTracker {
    /// Sliding window over the ad-id space. Vacant slots are ids that
    /// were never registered (realtime sales consume ids too) or already
    /// removed.
    slots: IdDeque<Option<AdReplicas>>,
    /// Number of occupied slots.
    live: usize,
    /// Queued cancellation hints, indexed by dense client id.
    pending_cancel: Vec<Vec<u64>>,
    stats: TrackerStats,
}

impl ReplicaTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, ad: u64) -> Option<&AdReplicas> {
        self.slots.get(ad)?.as_ref()
    }

    /// Registers an ad replicated across `holders`, due by `deadline`.
    ///
    /// The engine registers ads in increasing id order, so this normally
    /// extends the window tail; ids behind the window front are still
    /// accepted (the window slides back) so the API stays total.
    pub fn register(&mut self, ad: u64, holders: &[u32], deadline: SimTime) {
        let slot = self.slots.entry(ad);
        if slot.is_some() {
            debug_assert!(false, "ad {ad} registered twice");
            return;
        }
        *slot = Some(AdReplicas {
            holders: InlineVec::from_slice(holders),
            displayed_by: None,
            deadline,
            rescued: false,
        });
        self.live += 1;
        self.stats.ads_registered += 1;
        self.stats.replicas_registered += (holders.len() as u64).saturating_sub(1);
        self.stats.peak_tracked = self.stats.peak_tracked.max(self.live as u64);
    }

    /// Adds `client` as an extra (rescue) replica holder for `ad`.
    ///
    /// Returns `false` — and changes nothing — when the ad is untracked,
    /// already displayed, already rescued once, or `client` already holds
    /// it. A successful rescue marks the ad so later scans skip it.
    pub fn rescue_to(&mut self, ad: u64, client: u32) -> bool {
        let Some(entry) = self.slots.get_mut(ad).and_then(Option::as_mut) else {
            self.stats.rescues_refused += 1;
            return false;
        };
        if entry.displayed_by.is_some()
            || entry.rescued
            || entry.holders.as_slice().contains(&client)
        {
            self.stats.rescues_refused += 1;
            return false;
        }
        entry.holders.push(client);
        entry.rescued = true;
        self.stats.rescues += 1;
        true
    }

    /// Collects `(ad, deadline)` for every tracked ad that is still
    /// undisplayed, has not been rescued, and is due before `t`.
    ///
    /// Appends to `out` in ascending ad-id order.
    pub fn undisplayed_due_before(&self, t: SimTime, out: &mut Vec<(u64, SimTime)>) {
        for (ad, slot) in self.slots.iter() {
            if let Some(e) = slot {
                if e.displayed_by.is_none() && !e.rescued && e.deadline < t {
                    out.push((ad, e.deadline));
                }
            }
        }
    }

    /// Records that `client` displayed `ad`; on the first display, queues
    /// cancellations for every other holder.
    pub fn record_display(&mut self, ad: u64, client: u32) -> DisplayDisposition {
        let Some(entry) = self.slots.get_mut(ad).and_then(Option::as_mut) else {
            self.stats.unknown_displays += 1;
            return DisplayDisposition::Unknown;
        };
        match entry.displayed_by {
            None => {
                entry.displayed_by = Some(client);
                for &h in &entry.holders {
                    if h != client {
                        let hi = h as usize;
                        if hi >= self.pending_cancel.len() {
                            self.pending_cancel.resize_with(hi + 1, Vec::new);
                        }
                        self.pending_cancel[hi].push(ad);
                        self.stats.cancellations_queued += 1;
                    }
                }
                self.stats.first_displays += 1;
                DisplayDisposition::First
            }
            Some(_) => {
                self.stats.duplicate_displays += 1;
                DisplayDisposition::Duplicate
            }
        }
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

    /// Stops tracking an ad (its deadline passed); outstanding queued
    /// cancellations remain valid hints for holders.
    pub fn remove(&mut self, ad: u64) {
        let Some(slot) = self.slots.get_mut(ad) else {
            return;
        };
        if slot.take().is_some() {
            self.live -= 1;
            self.stats.ads_removed += 1;
            // Keep the window tight: trim vacant slots from both ends.
            self.slots.trim_front(|_, s| s.is_none());
            self.slots.trim_back(Option::is_none);
        }
    }

    /// Lifetime churn and reconciliation totals.
    pub fn stats(&self) -> &TrackerStats {
        &self.stats
    }

    /// Publishes churn counters and the tracked-ads high-water mark.
    pub fn publish(&self, reg: &MetricRegistry) {
        let s = &self.stats;
        reg.add("overbooking.ads_registered", s.ads_registered);
        reg.add("overbooking.replicas_registered", s.replicas_registered);
        reg.add("overbooking.rescues", s.rescues);
        reg.add("overbooking.rescues_refused", s.rescues_refused);
        reg.add("overbooking.first_displays", s.first_displays);
        reg.add("overbooking.duplicate_displays", s.duplicate_displays);
        reg.add("overbooking.unknown_displays", s.unknown_displays);
        reg.add("overbooking.cancellations_queued", s.cancellations_queued);
        reg.add("overbooking.ads_removed", s.ads_removed);
        reg.gauge_max("overbooking.peak_tracked", s.peak_tracked);
    }

    /// Clients holding replicas of `ad`, if tracked.
    pub fn holders(&self, ad: u64) -> Option<&[u32]> {
        self.slot(ad).map(|e| e.holders.as_slice())
    }

    /// Whether the ad has been displayed at least once.
    pub fn is_displayed(&self, ad: u64) -> bool {
        self.slot(ad)
            .map(|e| e.displayed_by.is_some())
            .unwrap_or(false)
    }

    /// Number of tracked ads.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no ads are tracked.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `client`'s queued cancellations, consumed.
    fn drained(t: &mut ReplicaTracker, client: u32) -> Vec<u64> {
        let mut out = Vec::new();
        t.drain_cancellations(client, &mut out);
        out
    }

    #[test]
    fn first_display_cancels_other_holders() {
        let mut t = ReplicaTracker::new();
        t.register(7, &[1, 2, 3], SimTime::from_hours(1));
        assert_eq!(t.record_display(7, 2), DisplayDisposition::First);
        assert!(t.is_displayed(7));
        assert_eq!(drained(&mut t, 1), vec![7]);
        assert_eq!(drained(&mut t, 3), vec![7]);
        // The displaying client gets no cancellation.
        assert!(drained(&mut t, 2).is_empty());
        // Cancellations are consumed.
        assert!(drained(&mut t, 1).is_empty());
    }

    #[test]
    fn later_displays_are_duplicates() {
        let mut t = ReplicaTracker::new();
        t.register(1, &[10, 11], SimTime::from_hours(1));
        assert_eq!(t.record_display(1, 10), DisplayDisposition::First);
        assert_eq!(t.record_display(1, 11), DisplayDisposition::Duplicate);
        assert_eq!(t.record_display(1, 10), DisplayDisposition::Duplicate);
    }

    #[test]
    fn unknown_ads_are_flagged() {
        let mut t = ReplicaTracker::new();
        assert_eq!(t.record_display(5, 1), DisplayDisposition::Unknown);
        t.register(5, &[1], SimTime::from_hours(1));
        t.remove(5);
        assert_eq!(t.record_display(5, 1), DisplayDisposition::Unknown);
        assert!(!t.is_displayed(5));
    }

    #[test]
    fn cancellations_accumulate_across_ads() {
        let mut t = ReplicaTracker::new();
        t.register(1, &[1, 2], SimTime::from_hours(1));
        t.register(2, &[1, 3], SimTime::from_hours(1));
        t.record_display(1, 2);
        t.record_display(2, 3);
        let mut c = drained(&mut t, 1);
        c.sort_unstable();
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn drain_cancellations_clears_but_keeps_capacity() {
        let mut t = ReplicaTracker::new();
        t.register(1, &[1, 2], SimTime::from_hours(1));
        t.record_display(1, 2);
        let mut out = Vec::new();
        t.drain_cancellations(1, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        t.drain_cancellations(1, &mut out);
        assert!(out.is_empty(), "drain consumes the queue");
        // A client the tracker has never seen drains nothing.
        t.drain_cancellations(999, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_holder_needs_no_cancellation() {
        let mut t = ReplicaTracker::new();
        t.register(9, &[4], SimTime::from_hours(1));
        assert_eq!(t.record_display(9, 4), DisplayDisposition::First);
        assert!(drained(&mut t, 4).is_empty());
    }

    #[test]
    fn rescue_adds_holder_once_and_joins_cancellation_fanout() {
        let mut t = ReplicaTracker::new();
        t.register(7, &[1, 2], SimTime::from_hours(1));
        assert!(t.rescue_to(7, 3));
        assert_eq!(t.holders(7), Some(&[1, 2, 3][..]));
        // Second rescue is refused: at most one per ad.
        assert!(!t.rescue_to(7, 4));
        // Existing holders can't be "rescued to".
        assert!(!t.rescue_to(7, 1));
        // If the rescue replica displays first, original holders are
        // cancelled like any other losers.
        assert_eq!(t.record_display(7, 3), DisplayDisposition::First);
        assert_eq!(drained(&mut t, 1), vec![7]);
        assert_eq!(drained(&mut t, 2), vec![7]);
    }

    #[test]
    fn rescue_refused_for_displayed_or_unknown_ads() {
        let mut t = ReplicaTracker::new();
        assert!(!t.rescue_to(99, 1));
        t.register(5, &[1], SimTime::from_hours(1));
        t.record_display(5, 1);
        assert!(!t.rescue_to(5, 2));
    }

    #[test]
    fn due_scan_reports_undisplayed_unrescued_ads() {
        let mut t = ReplicaTracker::new();
        t.register(1, &[1], SimTime::from_hours(1));
        t.register(2, &[2], SimTime::from_hours(2));
        t.register(3, &[3], SimTime::from_hours(1));
        t.record_display(1, 1);
        t.rescue_to(3, 9);
        let mut due = Vec::new();
        t.undisplayed_due_before(SimTime::from_mins(90), &mut due);
        // Ad 1 displayed, ad 2 not yet due, ad 3 already rescued.
        assert!(due.is_empty());
        t.register(4, &[4], SimTime::from_mins(30));
        t.undisplayed_due_before(SimTime::from_mins(90), &mut due);
        assert_eq!(due, vec![(4, SimTime::from_mins(30))]);
    }

    #[test]
    fn stats_track_churn_and_reconciliation() {
        let mut t = ReplicaTracker::new();
        t.register(1, &[1, 2, 3], SimTime::from_hours(1));
        t.register(2, &[4], SimTime::from_hours(1));
        assert!(t.rescue_to(2, 5));
        assert!(!t.rescue_to(2, 6)); // second rescue refused
        t.record_display(1, 2); // cancels holders 1 and 3
        t.record_display(1, 3); // duplicate
        t.record_display(99, 1); // unknown
        t.remove(1);
        t.remove(1); // double remove does not double count
        let s = *t.stats();
        assert_eq!(s.ads_registered, 2);
        assert_eq!(s.replicas_registered, 2);
        assert_eq!(s.rescues, 1);
        assert_eq!(s.rescues_refused, 1);
        assert_eq!(s.first_displays, 1);
        assert_eq!(s.duplicate_displays, 1);
        assert_eq!(s.unknown_displays, 1);
        assert_eq!(s.cancellations_queued, 2);
        assert_eq!(s.ads_removed, 1);
        assert_eq!(s.peak_tracked, 2);

        let reg = adpf_obs::MetricRegistry::new();
        t.publish(&reg);
        assert_eq!(reg.counter_value("overbooking.cancellations_queued"), 2);
        assert_eq!(reg.gauge_value("overbooking.peak_tracked"), 2);
    }

    #[test]
    fn len_tracks_registration_and_removal() {
        let mut t = ReplicaTracker::new();
        assert!(t.is_empty());
        t.register(1, &[1], SimTime::from_hours(1));
        t.register(2, &[2], SimTime::from_hours(1));
        assert_eq!(t.len(), 2);
        t.remove(1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arena_window_slides_over_gapped_monotone_ids() {
        // Realtime sales consume ids without registering them, so the
        // registered id stream is monotone with gaps; removal in id order
        // must advance the window front past the holes.
        let mut t = ReplicaTracker::new();
        for ad in [10u64, 13, 14, 20] {
            t.register(ad, &[1], SimTime::from_hours(1));
        }
        assert_eq!(t.len(), 4);
        t.remove(10);
        t.remove(13);
        assert_eq!(t.len(), 2);
        assert!(t.holders(14).is_some());
        assert!(t.holders(20).is_some());
        assert!(t.holders(10).is_none());
        // Interior removal leaves the window addressing later ads.
        t.remove(14);
        assert!(t.holders(20).is_some());
        t.remove(20);
        assert!(t.is_empty());
        // The arena keeps working after draining completely.
        t.register(31, &[2], SimTime::from_hours(2));
        assert_eq!(t.holders(31), Some(&[2][..]));
    }

    #[test]
    fn register_behind_window_front_still_lands() {
        let mut t = ReplicaTracker::new();
        t.register(50, &[1], SimTime::from_hours(1));
        t.register(40, &[2], SimTime::from_hours(1));
        assert_eq!(t.holders(40), Some(&[2][..]));
        assert_eq!(t.holders(50), Some(&[1][..]));
        assert_eq!(t.len(), 2);
    }
}
