//! Network-condition emulation for the ad-prefetching simulator.
//!
//! The paper's evaluation assumes every sync completes instantly over an
//! always-on link. Real mobile clients live behind flaky cellular
//! connections: links oscillate between WiFi, good and poor cellular, and
//! outright dead air, and whole regions occasionally black out together.
//! Because prefetching trades energy against SLA violations, those failure
//! modes land exactly on the quantities the paper cares about — a failed
//! sync delays replica delivery and impression reports, and a retry burns
//! a radio wakeup that delivered nothing.
//!
//! This crate models the network as a **seeded, deterministic per-client
//! state machine**:
//!
//! - [`LinkState`]: WiFi / cellular-good / cellular-poor / offline, each
//!   with a mean dwell time (exponential), a per-attempt failure
//!   probability, and an extra round-trip latency charged to the radio.
//! - [`OutageWindow`]: scheduled region-wide blackouts — a fixed fraction
//!   of clients lose connectivity over a wall-clock interval, for
//!   correlated-failure experiments.
//! - [`RetryPolicy`]: capped exponential backoff with deterministic
//!   jitter, driving the simulator's client-side retry events.
//! - [`NetworkModel`]: the per-simulation instance — one channel per
//!   client, each with its own RNG streams so that
//!   query order across clients never changes any client's trajectory.
//!
//! Determinism contract: a channel's link-state trajectory is a pure
//! function of `(stream_seed, client_index)` — state transitions draw from
//! a dedicated RNG, so *when* the simulator queries the channel (which
//! depends on retry policy and sync schedule) cannot perturb the weather
//! itself. Attempt coin flips and backoff jitter draw from a second
//! per-client RNG. Both properties together make sharded runs bit-identical
//! across `--threads` values, the same guarantee the rest of the simulator
//! provides.
//!
//! # Examples
//!
//! ```
//! use adpf_desim::SimTime;
//! use adpf_netem::{NetemConfig, NetworkModel};
//!
//! let cfg = NetemConfig::flaky_cellular();
//! let mut net = NetworkModel::new(cfg, 4, 0xfeed);
//! let verdict = net.attempt(0, SimTime::from_hours(1));
//! // Deterministic: the same model rebuilt from the same seed agrees.
//! let mut again = NetworkModel::new(NetemConfig::flaky_cellular(), 4, 0xfeed);
//! assert_eq!(verdict, again.attempt(0, SimTime::from_hours(1)));
//! ```

mod config;
mod model;

pub use config::{LinkProfile, LinkState, NetemConfig, OutageWindow, RetryPolicy};
pub use model::{LinkVerdict, NetworkModel};
