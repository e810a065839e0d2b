//! Per-client state: ad cache, pending reports, radio.
//!
//! Client state is stored in a struct-of-arrays [`ClientTable`] rather
//! than one struct per client: every field is a dense column indexed by
//! the client's `u32` id. The simulator's hot loops (candidate-pool
//! scans, sync scheduling) touch one or two scalar fields across many
//! clients, so the columnar layout keeps those scans contiguous in
//! cache, and the table's per-client heap footprint is a handful of
//! `Vec` headers instead of a boxed struct per user. The per-client
//! queues (slot times, pending reports, outboxes) are [`SlabQueues`]:
//! each kind shares one slab, which holds the entries queued across the
//! table at its peak rather than each client's own high-water mark.

use adpf_auction::AdId;
use adpf_desim::{SimDuration, SimTime, SlabQueues};
use adpf_energy::Radio;
use adpf_prediction::Predictor;

/// One prefetched ad sitting in a client's cache, in 16 bytes: the
/// ledger id, and the deadline with the replica flag in its top bit.
///
/// Replicas are insurance: they display only after all primaries, so
/// they rarely burn a slot unless the origin client actually failed.
/// With the flag above the deadline's bits, the packed word orders ads
/// exactly as the display-priority key `(replica, deadline)` does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CachedAd {
    /// Ledger id of the sold ad.
    id: AdId,
    /// [`CachedAd::REPLICA`] when this client holds an overbooking
    /// replica rather than the primary copy, or'ed with the latest time
    /// the ad may still be displayed, in ms.
    key: u64,
}

const _: () = assert!(std::mem::size_of::<CachedAd>() == 16);

impl CachedAd {
    /// The replica flag's bit in `key`. A deadline is a finite instant of
    /// the run, far below 2^63 ms.
    const REPLICA: u64 = 1 << 63;

    pub(crate) fn new(id: AdId, deadline: SimTime, replica: bool) -> Self {
        debug_assert!(deadline.as_millis() < Self::REPLICA);
        Self {
            id,
            key: deadline.as_millis() | if replica { Self::REPLICA } else { 0 },
        }
    }

    /// Ledger id of the sold ad.
    pub(crate) fn id(&self) -> AdId {
        self.id
    }

    /// Latest time the ad may still be displayed.
    pub(crate) fn deadline(&self) -> SimTime {
        SimTime::from_millis(self.key & !Self::REPLICA)
    }

    /// Whether this is an overbooking replica, not the primary copy.
    pub(crate) fn replica(&self) -> bool {
        self.key & Self::REPLICA != 0
    }

    /// Display-priority key: all primaries (earliest deadline first)
    /// before any replica.
    fn priority(&self) -> u64 {
        self.key
    }
}

/// One client's prefetched ads, kept sorted by display priority:
/// primaries earliest-deadline-first, then replicas.
///
/// The vector gives back capacity as it empties: a sync's purge that
/// leaves it at a quarter of its capacity or less halves the capacity,
/// so a client holds room for about what it holds now, not for its
/// high-water mark. Displays and cancellations between syncs never
/// shrink it, so a cache drained by displays and refilled at the next
/// sync does not reallocate at each step down and back up.
#[derive(Debug, Default)]
pub(crate) struct AdCache(Vec<CachedAd>);

impl AdCache {
    /// Capacity the cache keeps however empty it gets: the first
    /// allocation a 16-byte element takes, so a client whose cache
    /// empties and refills at every sync does not free and reallocate.
    const MIN_CAPACITY: usize = 4;

    /// Inserts an ad keeping display-priority order.
    pub fn insert(&mut self, ad: CachedAd) {
        let pos = self.0.partition_point(|c| c.priority() <= ad.priority());
        self.0.insert(pos, ad);
    }

    /// Number of cached primary (non-replica) ads — the quantity the
    /// server compares against predicted demand when topping up.
    pub(crate) fn primary_count(&self) -> usize {
        self.0.iter().filter(|c| !c.replica()).count()
    }

    /// Keeps the ads `keep` accepts; returns how many it dropped.
    fn retain(&mut self, keep: impl FnMut(&CachedAd) -> bool) -> usize {
        let before = self.0.len();
        self.0.retain(keep);
        before - self.0.len()
    }

    /// Removes and returns the best displayable ad at `now`, purging
    /// expired entries on the way.
    ///
    /// Primaries display in deadline order. Replicas are last-resort
    /// insurance: one becomes eligible only inside the final
    /// `replica_window` before its deadline — by then the origin client
    /// has evidently failed to show it, and a cancellation would long
    /// since have arrived had it succeeded. Holding replicas back keeps
    /// them from burning slots as duplicate displays of ads already shown
    /// elsewhere.
    pub(crate) fn take_displayable(
        &mut self,
        now: SimTime,
        replica_window: SimDuration,
    ) -> Option<CachedAd> {
        // Expired entries are dropped silently; the server's expiry sweep
        // does the ledger accounting.
        self.retain(|c| c.deadline() >= now);
        let pos = self
            .0
            .iter()
            .position(|c| !c.replica() || c.deadline().saturating_since(now) <= replica_window)?;
        Some(self.0.remove(pos))
    }

    /// Drops cache entries whose deadline has passed, at a sync; returns
    /// how many. Halves the capacity when what is left fits in a quarter
    /// of it.
    pub(crate) fn purge_expired(&mut self, now: SimTime) -> usize {
        let dropped = self.retain(|c| c.deadline() >= now);
        let cap = self.0.capacity();
        if cap > Self::MIN_CAPACITY && self.0.len() <= cap / 4 {
            self.0.shrink_to(cap / 2);
        }
        dropped
    }

    /// Drops the given ads (server-issued cancellations); returns how
    /// many entries were actually removed.
    fn cancel(&mut self, ads: &[u64]) -> usize {
        self.retain(|c| !ads.contains(&c.id().0))
    }
}

/// Struct-of-arrays state of every simulated client device plus the
/// server-side model the ad server keeps for each (predictor, queue
/// estimate, outbox). Column `i` across all vectors, and queue `i` of
/// each slab, is client `i`.
#[derive(Default)]
pub(crate) struct ClientTable {
    /// The client's radio modem (ad traffic only).
    pub(crate) radio: Vec<Radio>,
    /// Prefetched ads available for display.
    pub(crate) cache: Vec<AdCache>,
    /// Displays since the last sync, awaiting report, one queue per
    /// client.
    pub(crate) pending_reports: SlabQueues<(AdId, SimTime)>,
    /// Slot times since the last sync (the predictor's observation), one
    /// queue per client.
    pub(crate) slot_times: SlabQueues<SimTime>,
    /// Time of the last completed sync.
    pub(crate) last_sync: Vec<SimTime>,
    /// Time of the next scheduled sync.
    pub(crate) next_sync: Vec<SimTime>,
    /// Server-side demand model for this client. Only a prefetching
    /// engine syncs, and only a sync reads a predictor, so a realtime
    /// engine's table leaves this column empty.
    pub(crate) predictor: Vec<Predictor>,
    /// Server-side assignments awaiting the client's next sync, one
    /// queue per client.
    pub(crate) outbox: SlabQueues<CachedAd>,
    /// Server-side estimate of undisplayed ads assigned to this client
    /// (cache + outbox), used to discount availability.
    pub(crate) queued: Vec<u32>,
    /// Whether a netem retry event is outstanding for this client. Any
    /// completed sync clears it, turning the stale retry into a no-op.
    pub(crate) retry_pending: Vec<bool>,
    /// Expected rates planted by tests in place of the predictor's.
    #[cfg(test)]
    pub(crate) plant: Vec<Option<f64>>,
}

impl ClientTable {
    /// A table with room reserved for `n` clients, and for their
    /// predictors when it `predicts`.
    pub(crate) fn with_capacity(n: usize, predicts: bool) -> Self {
        Self {
            radio: Vec::with_capacity(n),
            cache: Vec::with_capacity(n),
            pending_reports: SlabQueues::default(),
            slot_times: SlabQueues::default(),
            last_sync: Vec::with_capacity(n),
            next_sync: Vec::with_capacity(n),
            predictor: Vec::with_capacity(if predicts { n } else { 0 }),
            outbox: SlabQueues::default(),
            queued: Vec::with_capacity(n),
            retry_pending: Vec::with_capacity(n),
            #[cfg(test)]
            plant: Vec::with_capacity(n),
        }
    }

    /// Appends a client with an idle radio and, if given, a predictor;
    /// returns its dense id.
    pub fn push(&mut self, radio: Radio, predictor: Option<Predictor>) -> usize {
        let id = self.radio.len();
        self.radio.push(radio);
        self.cache.push(AdCache::default());
        self.pending_reports.grow_to(id + 1);
        self.slot_times.grow_to(id + 1);
        self.last_sync.push(SimTime::ZERO);
        self.next_sync.push(SimTime::ZERO);
        self.predictor.extend(predictor);
        self.outbox.grow_to(id + 1);
        self.queued.push(0);
        self.retry_pending.push(false);
        #[cfg(test)]
        self.plant.push(None);
        id
    }

    /// Number of clients in the table.
    pub fn len(&self) -> usize {
        self.radio.len()
    }

    /// Client `i`'s expected slots in `[start, deadline)`: its predictor's
    /// availability estimate.
    pub(crate) fn expected_rate(&self, i: usize, start: SimTime, deadline: SimTime) -> f64 {
        #[cfg(test)]
        if let Some(rate) = self.plant[i] {
            return rate;
        }
        self.predictor(i)
            .expected_rate(start, deadline.saturating_since(start))
    }

    /// Client `i`'s demand model, which only a prefetching engine builds.
    pub(crate) fn predictor(&self, i: usize) -> &Predictor {
        debug_assert!(
            !self.predictor.is_empty(),
            "realtime engines build no predictor"
        );
        &self.predictor[i]
    }

    /// [`ClientTable::predictor`], to update.
    pub(crate) fn predictor_mut(&mut self, i: usize) -> &mut Predictor {
        debug_assert!(
            !self.predictor.is_empty(),
            "realtime engines build no predictor"
        );
        &mut self.predictor[i]
    }

    /// Removes the given ads from client `i`'s cache and outbox
    /// (server-issued cancellations); returns how many entries were
    /// actually dropped.
    pub(crate) fn cancel(&mut self, i: usize, ads: &[u64]) -> usize {
        self.cache[i].cancel(ads) + self.outbox.retain(i, |c| !ads.contains(&c.id().0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpf_energy::profiles;
    use adpf_prediction::PredictorKind;

    /// Replica-eligibility window used across these tests.
    const W: SimDuration = SimDuration::from_hours(1);

    fn ad(id: u64, deadline_h: u64) -> CachedAd {
        CachedAd::new(AdId(id), SimTime::from_hours(deadline_h), false)
    }

    fn replica(id: u64, deadline_h: u64) -> CachedAd {
        CachedAd::new(AdId(id), SimTime::from_hours(deadline_h), true)
    }

    #[test]
    fn cache_keeps_deadline_order() {
        let mut c = AdCache::default();
        c.insert(ad(1, 10));
        c.insert(ad(2, 5));
        c.insert(ad(3, 7));
        let order: Vec<u64> = c.0.iter().map(|a| a.id().0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn primaries_display_before_replicas() {
        let mut c = AdCache::default();
        c.insert(replica(1, 2)); // Urgent replica.
        c.insert(ad(2, 9)); // Relaxed primary.
        c.insert(replica(3, 5));
        c.insert(ad(4, 6));
        let order: Vec<u64> = c.0.iter().map(|a| a.id().0).collect();
        assert_eq!(order, vec![4, 2, 1, 3], "primaries EDF, then replicas EDF");
        assert_eq!(c.primary_count(), 2);
        let first = c.take_displayable(SimTime::from_hours(1), W).unwrap();
        assert!(!first.replica());
    }

    #[test]
    fn replicas_held_back_until_their_window() {
        let mut c = AdCache::default();
        c.insert(replica(1, 10));
        // Far from the deadline the replica is invisible.
        assert!(c.take_displayable(SimTime::from_hours(2), W).is_none());
        assert_eq!(c.0.len(), 1, "the replica stays cached");
        // Inside the final window it becomes displayable.
        let got = c.take_displayable(SimTime::from_hours(9), W).unwrap();
        assert_eq!(got.id().0, 1);
    }

    #[test]
    fn take_displayable_is_edf_and_skips_expired() {
        let mut c = AdCache::default();
        c.insert(ad(1, 1)); // Will be expired.
        c.insert(ad(2, 8));
        c.insert(ad(3, 6));
        let got = c.take_displayable(SimTime::from_hours(2), W).unwrap();
        assert_eq!(got.id().0, 3, "earliest non-expired deadline first");
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn take_displayable_empty_cache() {
        let mut c = AdCache::default();
        assert!(c.take_displayable(SimTime::ZERO, W).is_none());
        c.insert(ad(1, 1));
        assert!(c.take_displayable(SimTime::from_hours(2), W).is_none());
        assert!(c.0.is_empty());
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        let mut c = AdCache::default();
        c.insert(ad(1, 2));
        let got = c.take_displayable(SimTime::from_hours(2), W);
        assert!(got.is_some(), "an ad at exactly its deadline still shows");
    }

    #[test]
    fn purge_expired_counts() {
        let mut c = AdCache::default();
        c.insert(ad(1, 1));
        c.insert(ad(2, 2));
        c.insert(ad(3, 9));
        assert_eq!(c.purge_expired(SimTime::from_hours(3)), 2);
        assert_eq!(c.0.len(), 1);
        assert_eq!(c.purge_expired(SimTime::from_hours(3)), 0);
    }

    #[test]
    fn only_a_sync_purge_gives_back_capacity() {
        let mut c = AdCache::default();
        for id in 0..16 {
            c.insert(ad(id, 10 + id));
        }
        let full = c.0.capacity();
        // Displays drain it to a quarter and below without a reallocation.
        for _ in 0..13 {
            assert!(c.take_displayable(SimTime::from_hours(1), W).is_some());
        }
        assert_eq!(c.0.capacity(), full);
        // The sync's purge halves it, once per sync, down to the floor.
        c.purge_expired(SimTime::from_hours(1));
        assert_eq!(c.0.capacity(), full / 2);
        // Emptied, it halves at each sync down to the floor and no lower.
        while c.take_displayable(SimTime::from_hours(1), W).is_some() {}
        let mut cap = full / 2;
        while cap > AdCache::MIN_CAPACITY {
            c.purge_expired(SimTime::from_hours(1));
            cap /= 2;
            assert_eq!(c.0.capacity(), cap);
        }
        c.purge_expired(SimTime::from_hours(1));
        assert_eq!(c.0.capacity(), AdCache::MIN_CAPACITY);
    }

    #[test]
    fn table_cancel_hits_cache_and_outbox() {
        let mut t = ClientTable::default();
        let i = t.push(
            Radio::new(profiles::umts_3g()),
            Some(PredictorKind::Zero.build(&[])),
        );
        t.cache[i].insert(ad(1, 5));
        t.cache[i].insert(ad(2, 6));
        t.outbox.push(i, ad(3, 7));
        let dropped = t.cancel(i, &[1, 3, 99]);
        assert_eq!(dropped, 2);
        assert_eq!(t.cache[i].0.len(), 1);
        assert!(t.outbox.is_empty(i));
    }

    #[test]
    fn table_columns_stay_aligned() {
        let mut t = ClientTable::with_capacity(2, true);
        for _ in 0..2 {
            t.push(
                Radio::new(profiles::umts_3g()),
                Some(PredictorKind::Zero.build(&[])),
            );
        }
        assert_eq!(t.len(), 2);
        for len in [
            t.cache.len(),
            t.pending_reports.queues(),
            t.slot_times.queues(),
            t.last_sync.len(),
            t.next_sync.len(),
            t.predictor.len(),
            t.outbox.queues(),
            t.queued.len(),
            t.retry_pending.len(),
            t.plant.len(),
        ] {
            assert_eq!(len, 2);
        }
    }
}
