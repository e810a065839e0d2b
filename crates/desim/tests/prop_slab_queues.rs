//! Differential property tests for [`SlabQueues`]: random push, drain,
//! retain, first and is-empty sequences over up to eight queues, held
//! element for element to one `Vec` per queue, and the slab held to the
//! peak number of entries live at once.

use adpf_desim::SlabQueues;
use proptest::prelude::*;

/// The slab queues beside the `Vec<Vec<u32>>` they must behave as, and
/// the peak number of entries live at once.
struct Pair {
    slab: SlabQueues<u32>,
    model: Vec<Vec<u32>>,
    peak: usize,
}

impl Pair {
    fn new(queues: usize) -> Self {
        let mut slab = SlabQueues::default();
        slab.grow_to(queues);
        Self {
            slab,
            model: vec![Vec::new(); queues],
            peak: 0,
        }
    }

    fn push(&mut self, q: usize, v: u32) {
        self.slab.push(q, v);
        self.model[q].push(v);
        let live = self.model.iter().map(Vec::len).sum();
        self.peak = self.peak.max(live);
    }

    /// Drains queue `q` on both sides; the entries must agree in order.
    fn drain(&mut self, q: usize) -> Result<(), TestCaseError> {
        let mut got = Vec::new();
        self.slab.drain(q, |v| got.push(v));
        prop_assert_eq!(got, std::mem::take(&mut self.model[q]));
        Ok(())
    }

    /// Removes the entries at `drop` positions of queue `q` on both
    /// sides. Values are unique, so the positions name the values.
    fn retain_positions(
        &mut self,
        q: usize,
        drop: impl Fn(usize) -> bool,
    ) -> Result<(), TestCaseError> {
        let doomed: Vec<u32> = (self.model[q].iter().enumerate())
            .filter(|&(i, _)| drop(i))
            .map(|(_, &v)| v)
            .collect();
        let removed = self.slab.retain(q, |v| !doomed.contains(v));
        self.model[q].retain(|v| !doomed.contains(v));
        prop_assert_eq!(removed, doomed.len());
        Ok(())
    }

    /// Every queue's front and emptiness agree, and the slab holds
    /// exactly the peak number of entries live at once.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.slab.queues(), self.model.len());
        for (q, m) in self.model.iter().enumerate() {
            prop_assert_eq!(self.slab.first(q), m.first());
            prop_assert_eq!(self.slab.is_empty(q), m.is_empty());
        }
        prop_assert_eq!(self.slab.slab_len(), self.peak);
        Ok(())
    }

    /// Drains every queue, so the whole contents are compared in order.
    fn finish(mut self) -> Result<(), TestCaseError> {
        for q in 0..self.model.len() {
            self.drain(q)?;
            prop_assert!(self.slab.is_empty(q));
        }
        self.check()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of operations matches one `Vec` per queue. Pushes
    /// outweigh the rest, so queues run deep enough for a retain to take
    /// a head, a tail or a run out of the middle.
    #[test]
    fn slab_queues_match_one_vec_per_queue(
        queues in 1usize..9,
        ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..400),
    ) {
        let mut p = Pair::new(queues);
        let mut value = 0u32;
        for (kind, a, b) in ops {
            let q = (a % queues as u64) as usize;
            let len = p.model[q].len();
            match kind {
                0..=7 => {
                    p.push(q, value);
                    value += 1;
                }
                8 | 9 => p.drain(q)?,
                10 => p.retain_positions(q, |i| i == 0)?,
                11 => p.retain_positions(q, |i| i + 1 == len)?,
                12 => {
                    // A run out of the middle, possibly empty.
                    let from = (b % (len as u64 + 1)) as usize;
                    let to = from + ((b >> 32) % (len - from + 1) as u64) as usize;
                    p.retain_positions(q, |i| (from..to).contains(&i))?;
                }
                13 => p.retain_positions(q, |_| true)?,
                14 => p.retain_positions(q, |i| (b >> (i % 64)) & 1 == 1)?,
                _ => {
                    // Operations on a queue that does not exist see an
                    // empty one and change nothing.
                    let absent = queues + (b % 4) as usize;
                    prop_assert!(p.slab.is_empty(absent));
                    prop_assert_eq!(p.slab.first(absent), None);
                    let mut drained = 0;
                    p.slab.drain(absent, |_| drained += 1);
                    prop_assert_eq!(drained, 0);
                    prop_assert_eq!(p.slab.retain(absent, |_| false), 0);
                }
            }
            p.check()?;
        }
        p.finish()?;
    }
}

#[test]
fn retain_takes_the_head_the_tail_a_middle_run_and_everything() {
    let run = |drop: &dyn Fn(usize) -> bool, want: &[u32]| {
        let mut p = Pair::new(2);
        for v in 0..6 {
            p.push(0, v);
            p.push(1, 100 + v);
        }
        p.retain_positions(0, drop).unwrap();
        assert_eq!(p.model[0], want);
        // The other queue, interleaved in the same slab, is untouched.
        assert_eq!(p.model[1], [100, 101, 102, 103, 104, 105]);
        p.check().unwrap();
        // The queue still takes pushes at its (possibly new) tail.
        p.push(0, 50);
        p.finish().unwrap();
    };
    run(&|i| i == 0, &[1, 2, 3, 4, 5]);
    run(&|i| i == 5, &[0, 1, 2, 3, 4]);
    run(&|i| (2..4).contains(&i), &[0, 1, 4, 5]);
    run(&|_| true, &[]);
    run(&|_| false, &[0, 1, 2, 3, 4, 5]);
}

#[test]
fn draining_an_empty_queue_hands_out_nothing() {
    let mut p = Pair::new(3);
    p.drain(1).unwrap();
    p.push(1, 7);
    p.drain(1).unwrap();
    p.drain(1).unwrap();
    p.check().unwrap();
}

#[test]
fn pushes_after_drains_reuse_the_freed_nodes() {
    let mut p = Pair::new(8);
    let mut value = 0;
    // Each round fills every queue a little and drains them all: the
    // live count peaks at 8 × 5 each round, and so does the slab.
    for round in 0..10 {
        for q in 0..8 {
            for _ in 0..(q + round) % 6 {
                p.push(q, value);
                value += 1;
            }
        }
        p.check().unwrap();
        for q in 0..8 {
            p.drain(q).unwrap();
        }
    }
    assert!(p.slab.slab_len() <= 8 * 5);
    assert_eq!(p.slab.slab_len(), p.peak);
    p.finish().unwrap();
}
