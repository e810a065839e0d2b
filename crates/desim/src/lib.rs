//! Minimal deterministic discrete-event simulation kernel.
//!
//! The `adprefetch` end-to-end simulator replays weeks of app-usage traces
//! for thousands of clients. This crate provides the pieces that make
//! such a replay deterministic and fast:
//!
//! - [`time`]: a millisecond-resolution simulated clock ([`SimTime`]) and
//!   duration type ([`SimDuration`]) with calendar helpers (hour of day, day
//!   index) used by diurnal models.
//! - `queue`: an [`EventQueue`] ordered by time with FIFO tie-breaking, so
//!   two runs with the same inputs produce byte-identical outputs: one
//!   binary heap keyed by `(time, insertion order)`.
//! - [`InlineVec`]: a small-vector used by hot simulator loops to build
//!   short lists without heap allocation.
//! - [`WorkQueue`]: an atomic work queue that hands out indices into
//!   shared read-only work slices, the scheduling primitive behind the
//!   work-stealing sharded simulator and parallel trace generation.
//! - [`IdDeque`]: a sliding window over a monotone id space, the storage
//!   of the billing ledger and the replica tracker.
//! - [`SlabQueues`]: many FIFO queues sharing one slab of nodes, so
//!   per-client queues hold the peak number of entries live at once,
//!   not each queue's own high-water mark.
//!
//! # Examples
//!
//! ```
//! use adpf_desim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_secs(10), "later");
//! q.push(SimTime::from_secs(5), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t + SimDuration::from_secs(5), SimTime::from_secs(10));
//! ```

mod iddeque;
mod queue;
mod slabqueues;
mod smallvec;
mod steal;
pub mod time;

pub use iddeque::IdDeque;
pub use queue::EventQueue;
pub use slabqueues::SlabQueues;
pub use smallvec::InlineVec;
pub use steal::WorkQueue;
pub use time::{SimDuration, SimTime};
