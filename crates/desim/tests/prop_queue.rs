//! Differential property tests for the [`EventQueue`]: replay random
//! push/pop schedules against a plain O(n) reference implementation
//! and demand identical behaviour — pops, peeks, and lengths — at every
//! step.

use adpf_desim::{EventQueue, SimTime};
use proptest::prelude::*;

/// Reference queue with the original plain-heap semantics: pop the
/// minimum `(time, seq)`. O(n) per op, which is fine at test sizes.
#[derive(Default)]
struct RefQueue {
    entries: Vec<(u64, u64, u64)>, // (time_ms, seq, payload)
    seq: u64,
}

impl RefQueue {
    fn push(&mut self, time_ms: u64, payload: u64) {
        self.entries.push((time_ms, self.seq, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)?;
        let (t, _, p) = self.entries.swap_remove(i);
        Some((t, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.entries
            .iter()
            .map(|&(t, s, _)| (t, s))
            .min()
            .map(|(t, _)| t)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Turns an op code and raw value into a scheduled time: sub-second
/// clusters (one drain bucket), second-scale spreads (across buckets),
/// hour-scale times, ties, and u64-extreme times.
fn op_time(kind: u8, v: u64, last_time: u64) -> u64 {
    match kind {
        0 => v % 1_000,             // Dense near cluster.
        1 => (v % 10_000) * 977,    // Across near buckets.
        2 => (v % 100) * 3_600_000, // Hours out.
        3 => last_time,             // Exact tie with a prior push.
        _ => u64::MAX - (v % 4),    // Degenerate extreme times.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of pushes (at near, far, tied, and extreme
    /// times) and pops matches the reference implementation exactly.
    #[test]
    fn calendar_queue_matches_reference_on_random_schedules(
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r = RefQueue::default();
        let mut last_time = 0u64;
        let mut payload = 0u64;
        for (kind, v) in ops {
            if kind < 6 {
                // Push ops (kinds 0-5; 5 reuses the extreme-time rule).
                let t = op_time(kind.min(4), v, last_time);
                last_time = t;
                q.push(SimTime::from_millis(t), payload);
                r.push(t, payload);
                payload += 1;
            } else {
                // Pop ops.
                let got = q.pop().map(|(t, p)| (t.as_millis(), p));
                prop_assert_eq!(got, r.pop());
            }
            prop_assert_eq!(q.len(), r.len());
            prop_assert_eq!(q.peek_time().map(|t| t.as_millis()), r.peek_time());
        }
        // Drain both to the end: full order must agree.
        loop {
            let got = q.pop().map(|(t, p)| (t.as_millis(), p));
            let want = r.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Draining bucket-by-bucket through `drain_near_bucket` yields
    /// exactly the `(time, payload)` sequence repeated `pop` would, for
    /// any horizon — the equivalence the benchmark's
    /// `desim.queue_drain_ns` probe rests on — and leaves the queue in
    /// an identical state afterwards.
    #[test]
    fn drain_near_bucket_matches_repeated_pop(
        ops in prop::collection::vec((0u8..5, any::<u64>()), 1..250),
        horizon_ms in 1u64..10_000_000,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: EventQueue<u64> = EventQueue::new();
        let mut last_time = 0u64;
        for (i, (kind, v)) in ops.into_iter().enumerate() {
            let t = op_time(kind, v, last_time);
            last_time = t;
            q.push(SimTime::from_millis(t), i as u64);
            r.push(SimTime::from_millis(t), i as u64);
        }
        let upto = SimTime::from_millis(horizon_ms);
        let mut batched = Vec::new();
        let mut buf = Vec::new();
        while q.peek_time().is_some_and(|t| t < upto) {
            buf.clear();
            let n = q.drain_near_bucket(upto, &mut buf);
            prop_assert!(n > 0, "peek promised an event below the horizon");
            prop_assert_eq!(n, buf.len());
            batched.extend(buf.iter().copied());
        }
        let mut popped = Vec::new();
        while r.peek_time().is_some_and(|t| t < upto) {
            popped.push(r.pop().expect("peek promised an event"));
        }
        prop_assert_eq!(batched, popped);
        // Whatever remains at or past the horizon also agrees, in order.
        loop {
            let a = q.pop();
            prop_assert_eq!(a, r.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaving pushes at least a full bucket ahead between bucket
    /// drains still matches pop-by-pop dispatch exactly — the rest of
    /// what the `desim.queue_drain_ns` probe rests on.
    #[test]
    fn drain_with_future_pushes_matches_pop(
        times in prop::collection::vec(0u64..2_000_000, 1..120),
        extra in prop::collection::vec(1100u64..500_000, 0..60),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: EventQueue<u64> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i as u64);
            r.push(SimTime::from_millis(t), i as u64);
        }
        let mut payload = times.len() as u64;
        let mut extra = extra.into_iter();
        let mut batched = Vec::new();
        let mut buf = Vec::new();
        while q.peek_time().is_some() {
            buf.clear();
            q.drain_near_bucket(SimTime::MAX, &mut buf);
            for &(t, p) in &buf {
                batched.push((t, p));
                // A "handler" scheduling >= one bucket span ahead.
                if let Some(d) = extra.next() {
                    q.push(SimTime::from_millis(t.as_millis() + d), payload);
                    r.push(SimTime::from_millis(t.as_millis() + d), payload);
                    payload += 1;
                }
            }
        }
        let mut popped = Vec::new();
        while let Some((t, p)) = r.pop() {
            popped.push((t, p));
        }
        prop_assert_eq!(batched, popped);
    }

    /// Bulk pushes then a full drain pop in exactly `(time, seq)` order.
    #[test]
    fn full_drain_is_sorted_by_time_then_seq(
        times in prop::collection::vec(0u64..5_000_000, 1..200),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_millis(), i));
        }
        prop_assert_eq!(got, expect);
    }
}
