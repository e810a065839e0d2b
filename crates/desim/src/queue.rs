//! Time-ordered event queue with deterministic tie-breaking.
//!
//! The queue is a two-lane calendar queue: a ring of fixed-width time
//! buckets covers the *near future* (the per-second ad-slot cadence the
//! traces generate), and a [`BinaryHeap`] holds everything beyond that
//! window (syncs scheduled hours out, expiry sweeps). Near-lane pushes
//! and pops are O(1) amortized; far events migrate into the ring exactly
//! once, as the window advances over them.
//!
//! The ordering contract is identical to the plain-heap implementation
//! it replaced: events pop in `(time, seq)` order, where `seq` is the
//! global insertion counter — FIFO among events scheduled for the same
//! instant, regardless of which lane an event sat in.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Width of one near-lane bucket in milliseconds (as a shift: 1.024 s).
const BUCKET_MS_SHIFT: u32 = 10;
/// Number of ring buckets; with 1.024 s buckets the near window spans
/// ~17.5 minutes — comfortably more than the per-second slot cadence and
/// the sub-minute gaps between clustered events, while periodic syncs
/// (hours out) stay in the far heap until the window reaches them.
const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
const WINDOW_MS: u64 = (NUM_BUCKETS as u64) << BUCKET_MS_SHIFT;

/// An event queue ordered by time, with FIFO ordering among events scheduled
/// for the same instant.
///
/// Determinism is load-bearing for the whole reproduction: given the same
/// trace and seed, every simulation run must produce identical reports, so
/// ties must never be broken by heap insertion artifacts — or, now, by
/// which lane (ring bucket vs far heap) an event happened to live in.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future ring: bucket `(t >> BUCKET_MS_SHIFT) & BUCKET_MASK`
    /// holds events with `t` in `[near_start, near_start + WINDOW_MS)`.
    /// Events scheduled in the past land in the cursor bucket, which is
    /// always scanned first.
    near: Vec<Vec<Entry<E>>>,
    /// Events in the near ring (fast emptiness check for `pop`).
    near_len: usize,
    /// Start of the near window in ms; always bucket-aligned and
    /// monotonically non-decreasing.
    near_start: u64,
    /// Events at or beyond `near_start + WINDOW_MS`.
    far: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Reused sort buffer for [`EventQueue::drain_near_bucket`].
    drain_scratch: Vec<Entry<E>>,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse both keys to pop the earliest
        // time first and, within a time, the lowest sequence number.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            near: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            near_len: 0,
            near_start: 0,
            far: BinaryHeap::new(),
            seq: 0,
            drain_scratch: Vec::new(),
        }
    }

    fn bucket_of(t_ms: u64) -> usize {
        ((t_ms >> BUCKET_MS_SHIFT) as usize) & BUCKET_MASK
    }

    fn align(t_ms: u64) -> u64 {
        t_ms & !((1u64 << BUCKET_MS_SHIFT) - 1)
    }

    /// End of the near window (exclusive); every far-heap event's time is
    /// `>= window_end` — the invariant that makes cross-lane ordering
    /// trivial: any near event precedes every far event.
    fn window_end(&self) -> u64 {
        self.near_start.saturating_add(WINDOW_MS)
    }

    /// Advances the near window to `new_start` (bucket-aligned, >= the
    /// current start) and migrates far events that now fall inside it.
    /// Each event migrates at most once over the queue's lifetime.
    fn advance_to(&mut self, new_start: u64) {
        debug_assert!(new_start >= self.near_start);
        debug_assert_eq!(new_start, Self::align(new_start));
        self.near_start = new_start;
        let end = self.window_end();
        while self.far.peek().is_some_and(|e| e.time.as_millis() < end) {
            let e = self.far.pop().expect("peeked");
            self.near[Self::bucket_of(e.time.as_millis())].push(e);
            self.near_len += 1;
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        let t = time.as_millis();
        if t >= self.window_end() {
            self.far.push(entry);
        } else {
            // In-window times map to their ring slot; anything at or
            // before the cursor bucket (including past times) joins the
            // cursor bucket, which is scanned first.
            let idx = if t < self.near_start {
                Self::bucket_of(self.near_start)
            } else {
                Self::bucket_of(t)
            };
            self.near[idx].push(entry);
            self.near_len += 1;
        }
    }

    /// Index (within `self.near[bucket]`) of the minimum `(time, seq)`
    /// entry of a non-empty bucket.
    fn min_in_bucket(&self, bucket: usize) -> usize {
        let entries = &self.near[bucket];
        let mut best = 0;
        for (i, e) in entries.iter().enumerate().skip(1) {
            let b = &entries[best];
            if (e.time, e.seq) < (b.time, b.seq) {
                best = i;
            }
        }
        best
    }

    /// First non-empty ring bucket at or after the cursor, as an offset
    /// `d` in buckets; `None` when the ring is empty.
    fn first_occupied_offset(&self) -> Option<usize> {
        if self.near_len == 0 {
            return None;
        }
        let base = Self::bucket_of(self.near_start);
        (0..NUM_BUCKETS).find(|d| !self.near[(base + d) & BUCKET_MASK].is_empty())
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Re-anchor the window at the far heap's earliest event and
            // pull the next window's worth of events into the ring.
            let top_ms = self.far.peek()?.time.as_millis();
            self.advance_to(Self::align(top_ms).max(self.near_start));
            if self.near_len == 0 {
                // Times too large to fit any window (near u64::MAX):
                // serve straight from the heap, which is still exact.
                return self.far.pop().map(|e| (e.time, e.event));
            }
        }
        let d = self.first_occupied_offset().expect("near_len > 0");
        if d > 0 {
            // Skip the empty prefix permanently so repeated pops never
            // rescan it; migrate far events the window slid over.
            self.advance_to(self.near_start + ((d as u64) << BUCKET_MS_SHIFT));
        }
        let bucket = Self::bucket_of(self.near_start);
        let idx = self.min_in_bucket(bucket);
        let e = self.near[bucket].swap_remove(idx);
        self.near_len -= 1;
        Some((e.time, e.event))
    }

    /// Drains every event with `time < upto` from the *earliest occupied*
    /// near-lane bucket into `out`, sorted by `(time, seq)`, and returns
    /// how many were appended.
    ///
    /// This is exactly the prefix that repeated [`EventQueue::pop`] calls
    /// would return before leaving the head bucket: entries from a single
    /// bucket, in pop order, stopping at `upto`. Entries of the head
    /// bucket at or after `upto` stay queued, so everything still queued
    /// when the call returns is at or past every drained time. Callers
    /// wanting everything before `upto` loop until a call appends
    /// nothing. A caller whose handlers push while it dispatches a
    /// drained batch must re-check the queue head between batch items:
    /// a push timed before a later item of the batch pops ahead of that
    /// item, and one at the item's own time after it (larger `seq`).
    ///
    /// When every pending event lies beyond the addressable window (times
    /// near [`SimTime::MAX`]), at most one far-heap event is served per
    /// call, mirroring `pop`'s exact fallback.
    pub fn drain_near_bucket(&mut self, upto: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        if self.near_len == 0 {
            let Some(top) = self.far.peek() else {
                return 0;
            };
            let top_ms = top.time.as_millis();
            self.advance_to(Self::align(top_ms).max(self.near_start));
            if self.near_len == 0 {
                // Extreme-times fallback: serve one heap event, as `pop`
                // would.
                if self.far.peek().is_some_and(|e| e.time < upto) {
                    let e = self.far.pop().expect("peeked");
                    out.push((e.time, e.event));
                    return 1;
                }
                return 0;
            }
        }
        let d = self.first_occupied_offset().expect("near_len > 0");
        if d > 0 {
            self.advance_to(self.near_start + ((d as u64) << BUCKET_MS_SHIFT));
        }
        let bucket = Self::bucket_of(self.near_start);
        let mut scratch = std::mem::take(&mut self.drain_scratch);
        debug_assert!(scratch.is_empty());
        {
            let entries = &mut self.near[bucket];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].time < upto {
                    scratch.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.near_len -= scratch.len();
        scratch.sort_unstable_by_key(|e| (e.time, e.seq));
        let n = scratch.len();
        out.extend(scratch.drain(..).map(|e| (e.time, e.event)));
        self.drain_scratch = scratch;
        n
    }

    /// Time of the earliest pending event, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.first_occupied_offset() {
            Some(d) => {
                let bucket = (Self::bucket_of(self.near_start) + d) & BUCKET_MASK;
                Some(self.near[bucket][self.min_in_bucket(bucket)].time)
            }
            None => self.far.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.near {
            b.clear();
        }
        self.near_len = 0;
        self.far.clear();
    }

    /// Returns the queue to its freshly-constructed state — empty, window
    /// anchored at time zero, sequence counter restarted — while keeping
    /// every allocation (ring buckets, heap, sort buffer) for reuse.
    ///
    /// Unlike [`EventQueue::clear`], which preserves the window cursor and
    /// sequence counter of a mid-run queue, `reset` makes the queue
    /// indistinguishable from `EventQueue::new()` to any caller: `seq` is
    /// unobservable except through relative FIFO order, so restarting it
    /// is exact.
    pub fn reset(&mut self) {
        self.clear();
        self.near_start = 0;
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), "c");
        q.push(SimTime::from_secs(10), "a");
        q.push(SimTime::from_secs(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(9), ());
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
    }

    // --- Calendar-queue specific coverage -----------------------------

    /// One bucket width in ms, for tests that straddle lane boundaries.
    const BUCKET: u64 = 1 << BUCKET_MS_SHIFT;

    #[test]
    fn cross_lane_ordering_near_bucket_vs_far_heap() {
        let mut q = EventQueue::new();
        // Beyond the initial window: lives in the far heap.
        let far_t = SimTime::from_millis(WINDOW_MS + 5 * BUCKET);
        q.push(far_t, "far");
        // Inside the window: lives in a ring bucket.
        let near_t = SimTime::from_secs(2);
        q.push(near_t, "near");
        assert_eq!(q.peek_time(), Some(near_t));
        assert_eq!(q.pop(), Some((near_t, "near")));
        // The far event migrates (or serves) in exact time order.
        assert_eq!(q.pop(), Some((far_t, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_preserved_across_lane_boundary() {
        // Two events at the same instant: one pushed while that instant
        // was in the far lane (then migrated into the ring), one pushed
        // directly into the ring after the window advanced. Seq order
        // must still win.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(WINDOW_MS + BUCKET);
        q.push(t, 1); // Far lane at push time.
        q.push(SimTime::from_millis(2 * BUCKET), 0); // Near lane.
                                                     // Popping `0` advances the window two buckets, which slides the
                                                     // window end past `t` and migrates event `1` into the ring.
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2); // `t` is now inside the window: straight to the ring.
        assert_eq!(q.pop(), Some((t, 1)), "earlier seq first across lanes");
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn window_reanchors_over_long_idle_gaps() {
        let mut q = EventQueue::new();
        // Hours apart: every event is far at push time, mimicking the
        // periodic syncs that dominate the simulator's schedule.
        for h in (1..=30).rev() {
            q.push(SimTime::from_hours(h), h);
        }
        for h in 1..=30 {
            assert_eq!(q.pop(), Some((SimTime::from_hours(h), h)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        // Drain far enough that the window has advanced.
        q.push(SimTime::from_hours(2), "later");
        q.push(SimTime::from_hours(1), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        // Now schedule before the current window start.
        q.push(SimTime::from_secs(1), "past");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "past")));
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn extreme_times_are_served_exactly() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "end-of-time");
        q.push(SimTime::MAX, "end-of-time-2");
        q.push(SimTime::ZERO, "start");
        assert_eq!(q.pop().unwrap().1, "start");
        assert_eq!(q.pop().unwrap().1, "end-of-time");
        assert_eq!(q.pop().unwrap().1, "end-of-time-2");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_near_bucket_matches_pop_order() {
        let mk = || {
            let mut q = EventQueue::new();
            let base = SimTime::from_secs(3);
            q.push(base + SimDuration::from_millis(3), 30);
            q.push(base + SimDuration::from_millis(1), 10);
            q.push(base + SimDuration::from_millis(3), 31);
            q.push(base + SimDuration::from_millis(2), 20);
            q.push(SimTime::from_hours(1), 99); // different bucket (far)
            q
        };
        let mut by_pop = Vec::new();
        let mut q = mk();
        while let Some(e) = q.pop() {
            by_pop.push(e);
        }
        let mut by_drain = Vec::new();
        let mut q = mk();
        while q.drain_near_bucket(SimTime::MAX, &mut by_drain) > 0 {}
        assert_eq!(by_drain, by_pop);
    }

    #[test]
    fn drain_near_bucket_respects_upto_within_bucket() {
        let mut q = EventQueue::new();
        let base = SimTime::from_secs(3);
        q.push(base + SimDuration::from_millis(5), 5);
        q.push(base + SimDuration::from_millis(1), 1);
        q.push(base + SimDuration::from_millis(9), 9);
        let mut out = Vec::new();
        let n = q.drain_near_bucket(base + SimDuration::from_millis(6), &mut out);
        assert_eq!(n, 2);
        assert_eq!(
            out,
            vec![
                (base + SimDuration::from_millis(1), 1),
                (base + SimDuration::from_millis(5), 5)
            ]
        );
        assert_eq!(q.len(), 1, "the >= upto entry stays queued");
        assert_eq!(q.pop().unwrap().1, 9);
    }

    #[test]
    fn drain_near_bucket_takes_one_bucket_at_a_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(BUCKET / 2), 'a');
        q.push(SimTime::from_millis(5 * BUCKET), 'b');
        let mut out = Vec::new();
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 1);
        assert_eq!(out, vec![(SimTime::from_millis(BUCKET / 2), 'a')]);
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 1);
        assert_eq!(out.last(), Some(&(SimTime::from_millis(5 * BUCKET), 'b')));
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 0);
    }

    #[test]
    fn drain_near_bucket_serves_extreme_times_one_at_a_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 1);
        q.push(SimTime::MAX, 2);
        let mut out = Vec::new();
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 0, "< upto");
        let upto = SimTime::MAX;
        assert_eq!(q.drain_near_bucket(upto, &mut out), 0);
        // Anything strictly below MAX leaves them; only an exclusive
        // bound above them would drain, so check FIFO via pop instead.
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn reset_restarts_seq_and_window() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_hours(2), 1);
        q.pop();
        q.push(SimTime::from_secs(1), 2);
        q.reset();
        assert!(q.is_empty());
        // Behaves like a fresh queue: same-time FIFO starts over and
        // near-window pushes at t=0 work.
        let t = SimTime::from_secs(5);
        q.push(t, 10);
        q.push(t, 11);
        assert_eq!(q.pop(), Some((t, 10)));
        assert_eq!(q.pop(), Some((t, 11)));
    }

    #[test]
    fn dense_same_bucket_ties_stay_ordered() {
        // Many events inside one bucket, out of time order, with ties.
        let mut q = EventQueue::new();
        let base = SimTime::from_secs(3);
        q.push(base + SimDuration::from_millis(3), (3, 'a'));
        q.push(base + SimDuration::from_millis(1), (1, 'a'));
        q.push(base + SimDuration::from_millis(3), (3, 'b'));
        q.push(base + SimDuration::from_millis(2), (2, 'a'));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![(1, 'a'), (2, 'a'), (3, 'a'), (3, 'b')]);
    }
}
