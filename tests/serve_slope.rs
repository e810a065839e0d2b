//! Server memory over the horizon: what a session holds per client may
//! grow with the days it serves only by a bounded amount. The clients'
//! histories, caches and ledgers grow as they age, so the same
//! population is served at two and at fourteen days, and the gate fails
//! when the per-client high-water above the input grows by more than
//! [`MAX_GROWTH_PER_CLIENT`] between the two.
//!
//! Harness-less, on the counting allocator of `heap/` (see
//! `serve_heap`): `cargo test --test serve_slope`.

mod heap;
#[path = "heap/serve.rs"]
mod session;

/// Five eighths of the `serve_heap` population, in as many users per
/// shard (125), so a debug build serves both horizons in about twelve
/// seconds. Its 110,545 two-day requests still fill the mailbox every
/// run, so both readings repeat to ±100 B per client; at 1,000 users
/// the two-day reading moved by ≈ 900 B run to run.
const USERS: u32 = 1_250;
const SHARDS: usize = 10;
const SHORT_DAYS: u32 = 2;
const LONG_DAYS: u32 = 14;

/// Ceiling on the growth from two to fourteen days, in bytes per
/// client. It reads ≈ 3,800–3,900 (≈ 6,200–6,300 and ≈ 10,000–10,150 B
/// per client). Rate histories as a `VecDeque<f64>` with a sorted copy
/// read ≈ 7,700–7,800, and the layout before this gate, whose clients
/// also kept `f64` hour cells, caches at their high-water capacity and
/// 24-byte ads and events, ≈ 8,000–8,600. The other four parts move the
/// growth by less than its run-to-run spread (caches kept at their
/// high-water capacity read +3,882).
const MAX_GROWTH_PER_CLIENT: usize = 5_000;

fn main() {
    let short = session::serve_once(USERS, SHORT_DAYS, SHARDS);
    let long = session::serve_once(USERS, LONG_DAYS, SHARDS);
    let growth = long.per_client.saturating_sub(short.per_client);
    println!(
        "serve_slope: {USERS} users, {SHARDS} shards, 1 worker: {} B per client at \
         {SHORT_DAYS} days ({} requests), {} at {LONG_DAYS} ({} requests): \
         +{growth} B (ceiling {MAX_GROWTH_PER_CLIENT})",
        short.per_client, short.requests, long.per_client, long.requests
    );
    assert!(
        growth < MAX_GROWTH_PER_CLIENT,
        "a client's share of the session grew by {growth} B from {SHORT_DAYS} to {LONG_DAYS} days"
    );
}
