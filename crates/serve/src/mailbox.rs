//! The bounded swap mailbox: how the ingest thread hands events to a
//! worker in batches.
//!
//! One producer appends a buffer of items at a time; one consumer takes
//! *everything pending* in one `mem::swap` with its own reused buffer.
//! Batch size therefore adapts to load with no timer: a consumer that
//! keeps up takes a handful of items per wake-up, one that is behind
//! takes tens of thousands. In steady state neither side allocates —
//! the two vectors trade places, capacity included.
//!
//! The mailbox is bounded: a push blocks while `cap` or more items are
//! pending (backpressure reaches the producer, and through it the
//! transport, instead of growing a queue), and a push that is admitted
//! lands whole, so at most `cap − 1` plus one push's worth is ever held.
//! Either side may [`close`](Mailbox::close) it: the consumer still
//! drains what is pending and then sees the end; the producer gets
//! [`Closed`] back instead of blocking on a consumer that is gone.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The mailbox was closed; the pushed items were not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

struct State<T> {
    pending: Vec<T>,
    closed: bool,
    /// Pushes that found the mailbox full and had to wait.
    blocked_pushes: u64,
}

/// A bounded single-producer, single-consumer batch mailbox.
pub struct Mailbox<T> {
    state: Mutex<State<T>>,
    /// Signalled when items arrive or the mailbox closes.
    filled: Condvar,
    /// Signalled when the consumer empties the mailbox or it closes.
    drained: Condvar,
    cap: usize,
}

impl<T> Mailbox<T> {
    /// An open, empty mailbox that admits a push while fewer than `cap`
    /// items are pending.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a zero-capacity mailbox admits nothing");
        Self {
            state: Mutex::new(State {
                pending: Vec::new(),
                closed: false,
                blocked_pushes: 0,
            }),
            filled: Condvar::new(),
            drained: Condvar::new(),
            cap,
        }
    }

    /// Every critical section is a `Vec` append or swap plus flag
    /// updates, so the state is valid at every step and a poisoned lock
    /// (the other side panicked) is safe to keep using — which is what
    /// lets `close` run from a drop guard during that very unwind.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves all of `items` into the mailbox, leaving it empty with its
    /// capacity, after waiting for the pending count to fall below the
    /// cap.
    pub fn push(&self, items: &mut Vec<T>) -> Result<(), Closed> {
        let full = |s: &State<T>| s.pending.len() >= self.cap && !s.closed;
        let mut s = self.lock();
        if full(&s) {
            s.blocked_pushes += 1;
        }
        while full(&s) {
            s = self.drained.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.closed {
            return Err(Closed);
        }
        s.pending.append(items);
        drop(s);
        self.filled.notify_one();
        Ok(())
    }

    /// Replaces the contents of `batch` with everything pending,
    /// waiting until there is something. `false` once the mailbox is
    /// closed and drained (`batch` is then empty).
    pub fn take(&self, batch: &mut Vec<T>) -> bool {
        batch.clear();
        let mut s = self.lock();
        while s.pending.is_empty() {
            if s.closed {
                return false;
            }
            s = self.filled.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::swap(&mut s.pending, batch);
        drop(s);
        self.drained.notify_one();
        true
    }

    /// Ends the session from either side and wakes whoever is waiting.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.filled.notify_one();
        self.drained.notify_one();
    }

    /// How many pushes had to wait for room so far.
    pub(crate) fn blocked_pushes(&self) -> u64 {
        self.lock().blocked_pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_everything_pending_in_push_order() {
        let m = Mailbox::new(100);
        m.push(&mut vec![1, 2]).unwrap();
        let mut more = vec![3];
        m.push(&mut more).unwrap();
        assert!(more.is_empty());
        let mut batch = vec![99];
        assert!(m.take(&mut batch));
        assert_eq!(batch, [1, 2, 3]);
        assert_eq!(m.blocked_pushes(), 0);
    }

    #[test]
    fn close_lets_the_consumer_drain_then_stop_and_refuses_the_producer() {
        let m = Mailbox::new(4);
        m.push(&mut vec![7]).unwrap();
        m.close();
        assert_eq!(m.push(&mut vec![8]), Err(Closed));
        let mut batch = Vec::new();
        assert!(m.take(&mut batch));
        assert_eq!(batch, [7]);
        assert!(!m.take(&mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn a_full_mailbox_blocks_the_producer_until_the_consumer_takes() {
        let m = Mailbox::new(2);
        // The first push is admitted whole although it exceeds the cap.
        m.push(&mut vec![1, 2, 3]).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| m.push(&mut vec![4]).unwrap());
            // Take only once the producer has registered as blocked.
            while m.blocked_pushes() == 0 {
                std::thread::yield_now();
            }
            let mut batch = Vec::new();
            assert!(m.take(&mut batch));
            assert_eq!(batch, [1, 2, 3]);
            assert!(m.take(&mut batch));
            assert_eq!(batch, [4]);
        });
        assert_eq!(m.blocked_pushes(), 1);
    }

    #[test]
    fn closing_wakes_a_blocked_producer() {
        let m = Mailbox::new(1);
        m.push(&mut vec![1]).unwrap();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| m.push(&mut vec![2]));
            // Close only once the producer has registered as blocked.
            while m.blocked_pushes() == 0 {
                std::thread::yield_now();
            }
            m.close();
            assert_eq!(blocked.join().unwrap(), Err(Closed));
        });
    }
}
