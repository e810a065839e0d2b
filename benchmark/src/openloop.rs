//! The benchmark's own open-loop load generator.
//!
//! An open loop sends on a fixed schedule whether or not the server
//! keeps up: tick `k` is *due* at `start + k × period`, and its lateness
//! is measured from that due time, not from when the previous tick
//! finished. A stall therefore shows up in every tick it delayed — the
//! wait it imposes on later requests is counted, and a generator that
//! cannot hold its schedule says so (`gen.late_*`) instead of silently
//! lowering the offered rate.

use std::io::Read;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The time source the schedule runs against; a fake one drives the tests.
pub trait Clock {
    /// Time since some fixed origin.
    fn now(&self) -> Duration;
    /// Blocks for (about) `d`.
    fn sleep(&self, d: Duration);
}

/// The real clock: monotonic time and `thread::sleep`.
pub struct WallClock(Instant);

impl Default for WallClock {
    fn default() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Runs `ticks` ticks of an open-loop schedule, `period` apart, the
/// first one due `lead` after the call. `send(k)` emits tick `k`'s
/// payload. Returns each tick's lateness: how long after its due time
/// it was actually sent.
pub fn run_schedule(
    clock: &impl Clock,
    ticks: usize,
    period: Duration,
    lead: Duration,
    mut send: impl FnMut(usize),
) -> Vec<Duration> {
    let first_due = clock.now() + lead;
    (0..ticks)
        .map(|k| {
            let due = first_due + period * k as u32;
            let now = clock.now();
            if now < due {
                clock.sleep(due - now);
            }
            let late = clock.now().saturating_sub(due);
            send(k);
            late
        })
        .collect()
}

/// Write half of the in-memory pipe: every chunk is one channel message.
pub type PipeWriter = mpsc::Sender<Vec<u8>>;

/// Read half of the in-memory pipe the generator feeds the server
/// through. Reports end of input once the writer is dropped and the
/// backlog is drained.
pub struct PipeReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

/// A fresh in-memory pipe.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = mpsc::channel();
    (
        tx,
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or pushed.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep(&self, d: Duration) {
            self.advance(d);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn an_unstalled_schedule_is_never_late_and_keeps_its_period() {
        let clock = FakeClock(Cell::new(Duration::from_secs(7)));
        let mut sent_at = Vec::new();
        let late = run_schedule(&clock, 5, MS, 2 * MS, |_| sent_at.push(clock.now()));
        assert_eq!(late, vec![Duration::ZERO; 5]);
        let start = Duration::from_secs(7) + 2 * MS;
        let want: Vec<_> = (0..5).map(|k| start + MS * k).collect();
        assert_eq!(sent_at, want);
    }

    #[test]
    fn a_stall_is_charged_to_every_tick_it_delays() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Sending tick 2 blocks for 3.5 periods.
        let late = run_schedule(&clock, 8, MS, Duration::ZERO, |k| {
            if k == 2 {
                clock.advance(MS * 7 / 2);
            }
        });
        // Ticks 3, 4, 5 were due at 3, 4, 5 ms but the clock already read
        // 5.5 ms: lateness is measured from the due time, so they are
        // 2.5, 1.5 and 0.5 ms late. Tick 6 is back on schedule.
        let half = MS / 2;
        assert_eq!(
            late,
            vec![
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                2 * MS + half,
                MS + half,
                half,
                Duration::ZERO,
                Duration::ZERO
            ]
        );
    }

    #[test]
    fn the_offered_rate_does_not_drop_after_a_stall() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut sent_at = Vec::new();
        run_schedule(&clock, 10, MS, Duration::ZERO, |k| {
            if k == 0 {
                clock.advance(4 * MS);
            }
            sent_at.push(clock.now());
        });
        // All ten ticks still go out within the ten scheduled periods.
        assert!(sent_at[9] <= 10 * MS);
    }

    #[test]
    fn pipe_delivers_chunks_in_order_then_end_of_input() {
        let (tx, mut rx) = pipe();
        tx.send(b"ab".to_vec()).unwrap();
        tx.send(Vec::new()).unwrap();
        tx.send(b"cde".to_vec()).unwrap();
        drop(tx);
        let mut all = String::new();
        rx.read_to_string(&mut all).unwrap();
        assert_eq!(all, "abcde");
    }
}
