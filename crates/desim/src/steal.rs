//! A minimal atomic work queue for deterministic fan-out.
//!
//! [`WorkQueue`] hands out the indices `0..len` exactly once each, in
//! claim order, to any number of racing workers. It is the scheduling
//! primitive behind the sharded simulator and the parallel trace
//! generator: work items are *indices into a shared read-only slice*, and
//! each worker writes its result into the slot for the index it claimed,
//! so results assemble in index order no matter which thread ran what.
//! That is what keeps thread count a pure scheduling choice — outputs are
//! identical at any worker count, including one.
//!
//! Compared with the static `t..n step_by(threads)` stride split this
//! replaced, a claim-per-item queue is naturally work-stealing: a worker
//! that finishes a cheap item immediately claims the next outstanding
//! one, so heavy-tailed item costs no longer serialize behind the
//! unluckiest stride.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hands out the indices `0..len` exactly once each across threads.
///
/// The counter uses relaxed ordering: claims only need to be unique, not
/// ordered relative to other memory traffic. Publication of the results
/// produced for the claimed indices must be synchronized by the caller
/// (joining the worker threads, e.g. via `std::thread::scope`, is
/// sufficient and is what both in-tree users do).
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// A queue over the indices `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Total number of indices this queue hands out.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue was created empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claims the next outstanding index, or `None` when all `len`
    /// indices have been handed out.
    pub fn claim(&self) -> Option<usize> {
        // `fetch_add` past `len` is harmless: the counter is monotone and
        // every overshooting claim returns `None`. With `usize::MAX`
        // workers short of wrapping, overflow is unreachable in practice.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_each_index_once_in_order() {
        let q = WorkQueue::new(3);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None, "drained queues stay drained");
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = WorkQueue::new(0);
        assert!(q.is_empty());
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn threaded_claims_cover_the_range_exactly_once() {
        let q = WorkQueue::new(1000);
        let mut claimed: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(i) = q.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        claimed.sort_unstable();
        assert_eq!(claimed, (0..1000).collect::<Vec<_>>());
    }
}
