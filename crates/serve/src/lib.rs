//! Online ad-serving front end.
//!
//! The batch pipeline (`adpf-core`) answers "what would a week of this
//! population cost?"; this crate answers the operational form of the
//! same question: a **server** that ingests ad-slot events as they
//! arrive — newline-delimited text over stdin or a TCP socket — and
//! decides each one in-line with the very same [`ClientEngine`] the
//! batch simulator drives. Same engine, same sharding derivations, same
//! shard-ordered merge: replaying a trace's event stream through the
//! server reproduces the batch report **bit for bit** (the CI smoke
//! gate pins the shared golden hash).
//!
//! - [`protocol`] — the wire format, its panic-free, line-numbered
//!   ingest parser, and the zero-copy chunk framer in front of it.
//! - `mailbox` — the bounded swap mailbox that hands events from the
//!   ingest thread to a worker in batches.
//! - `pool` — the serve workers kept between sessions, so a session
//!   starts no thread once the process has run one its size.
//! - `server` — the sharded serving loop: work-stealing engine
//!   construction, per-shard single-owner event routing in
//!   shard-grouped batches, latency histograms, graceful shutdown into
//!   a final [`SimReport`](adpf_core::SimReport) plus obs snapshot.
//!
//! The `serve` binary wraps [`server::serve`] for the command line; the
//! load-generator lives in `adpf-bench` (`baseline --workload serve`),
//! which replays generated traces against an in-process server and
//! records requests/s and decision-latency percentiles.
//!
//! [`ClientEngine`]: adpf_core::ClientEngine

mod mailbox;
mod pool;
pub mod protocol;
mod server;

pub use mailbox::Mailbox;
pub use protocol::{
    write_events, write_events_paced, Framer, IngestError, Parser, SlotEvent, StreamHeader,
    CLIENT_BYTES,
};
pub use server::{
    serve, ServeError, ServeOptions, ServeOutcome, BACKPRESSURE_METRIC, BATCH_EVENTS_METRIC,
    DECISION_LATENCY_METRIC, QUEUE_WAIT_METRIC,
};
