//! Time-ordered event queue with deterministic tie-breaking.
//!
//! One [`BinaryHeap`] ordered by `(time, seq)`, where `seq` is the
//! queue's insertion counter: events pop earliest first, and FIFO among
//! events scheduled for the same instant. Push and pop are O(log n) in
//! the number of pending events, and the heap is the queue's only
//! allocation.
//!
//! No near-future lane sits in front of the heap: the simulator schedules
//! every periodic event (syncs, expiry sweeps, pacing ticks) an hour or
//! more ahead, so a ring of near-future time buckets would hold little
//! but netem retries, at the cost of one vector per bucket.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Width of the bucket [`EventQueue::drain_near_bucket`] takes, in
/// milliseconds, as a shift: 1.024 s.
const BUCKET_MS_SHIFT: u32 = 10;

/// An event queue ordered by time, with FIFO ordering among events scheduled
/// for the same instant.
///
/// Determinism is load-bearing for the whole reproduction: given the same
/// trace and seed, every simulation run must produce identical reports, so
/// ties must never be broken by heap insertion artifacts.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
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
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Benchmark shim; deleted once `benchmark/` rebinds. Pops into
    /// `out`, in pop order, every event below `upto` in the head's
    /// bucket — the aligned 1.024 s span holding the earliest event — and
    /// returns how many were appended.
    ///
    /// This is exactly the prefix that repeated [`EventQueue::pop`] calls
    /// would return before leaving the head's bucket, stopping at `upto`,
    /// so everything still queued when the call returns is at or past
    /// every drained time. Callers wanting everything before `upto` loop
    /// until a call appends nothing. A caller whose handlers push while
    /// it dispatches a drained batch must re-check the queue head between
    /// batch items: a push timed before a later item of the batch pops
    /// ahead of that item, and one at the item's own time after it
    /// (larger `seq`).
    pub fn drain_near_bucket(&mut self, upto: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let Some(head) = self.heap.peek() else {
            return 0;
        };
        let last_ms_of_bucket = head.time.as_millis() | ((1 << BUCKET_MS_SHIFT) - 1);
        let end = SimTime::from_millis(last_ms_of_bucket.saturating_add(1)).min(upto);
        let before = out.len();
        while let Some(top) = self.heap.peek_mut() {
            if top.time >= end {
                break;
            }
            let e = PeekMut::pop(top);
            out.push((e.time, e.event));
        }
        out.len() - before
    }

    /// Time of the earliest pending event, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Benchmark shim; deleted once `benchmark/` rebinds. Returns the
    /// queue to its freshly-constructed state — empty, sequence counter
    /// restarted — while keeping the heap's allocation for reuse.
    ///
    /// Unlike [`EventQueue::clear`], which preserves the sequence counter
    /// of a mid-run queue, `reset` makes the queue indistinguishable from
    /// `EventQueue::new()` to any caller: `seq` is unobservable except
    /// through relative FIFO order, so restarting it is exact.
    pub fn reset(&mut self) {
        self.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// One drain bucket's width in ms.
    const BUCKET: u64 = 1 << BUCKET_MS_SHIFT;

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

    #[test]
    fn push_into_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_hours(2), "later");
        q.push(SimTime::from_hours(1), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        // Now schedule before the last popped time.
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
            q.push(SimTime::from_hours(1), 99); // A later bucket.
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
        q.push(SimTime::from_millis(BUCKET - 1), 'b');
        q.push(SimTime::from_millis(BUCKET), 'c');
        q.push(SimTime::from_millis(5 * BUCKET), 'd');
        let mut out = Vec::new();
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 2);
        assert_eq!(
            out,
            vec![
                (SimTime::from_millis(BUCKET / 2), 'a'),
                (SimTime::from_millis(BUCKET - 1), 'b')
            ]
        );
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 1);
        assert_eq!(out.last(), Some(&(SimTime::from_millis(BUCKET), 'c')));
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 1);
        assert_eq!(out.last(), Some(&(SimTime::from_millis(5 * BUCKET), 'd')));
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 0);
    }

    #[test]
    fn drain_near_bucket_stops_below_the_end_of_time() {
        // The last bucket ends at `SimTime::MAX` itself, which a strict
        // bound never drains: those events leave through `pop`.
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 2);
        q.push(SimTime::from_millis(u64::MAX - 1), 1);
        let mut out = Vec::new();
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 1);
        assert_eq!(out, vec![(SimTime::from_millis(u64::MAX - 1), 1)]);
        assert_eq!(q.drain_near_bucket(SimTime::MAX, &mut out), 0);
        assert_eq!(q.pop(), Some((SimTime::MAX, 2)));
    }

    #[test]
    fn reset_restarts_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_hours(2), 1);
        q.pop();
        q.push(SimTime::from_secs(1), 2);
        q.reset();
        assert!(q.is_empty());
        // Behaves like a fresh queue: same-time FIFO starts over.
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
