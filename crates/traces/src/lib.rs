//! App-usage traces: data model, synthetic generation, I/O, statistics.
//!
//! The paper evaluates on proprietary traces of 1,700+ iPhone and Windows
//! Phone users (app foreground sessions over several weeks). Those traces
//! are not available, so this crate provides:
//!
//! - `model`: the trace data model — users, apps, foreground
//!   [`Session`]s, and the derived [`AdSlot`] stream (one slot at session
//!   start plus one per refresh interval while the app stays foreground).
//! - `gen`: a seeded synthetic population generator reproducing the
//!   statistical structure the paper's mechanisms rely on: diurnal rhythm,
//!   weekday/weekend modulation, heavy-tailed per-user activity, Zipf app
//!   popularity, and lognormal session lengths. Presets
//!   [`gen::PopulationConfig::iphone_like`] and
//!   [`gen::PopulationConfig::windows_phone_like`] match the populations in
//!   the paper's dataset table.
//! - [`csv`]: a plain-text trace format so real traces can be dropped in.
//! - [`stats`]: per-trace summaries used by the dataset table and the
//!   predictability figures.
//!
//! # Examples
//!
//! ```
//! use adpf_desim::SimDuration;
//! use adpf_traces::PopulationConfig;
//!
//! let trace = PopulationConfig::small_test(42).generate();
//! assert!(trace.sessions().len() > 0);
//! let slots = trace.ad_slots(SimDuration::from_secs(30));
//! assert!(slots.len() >= trace.sessions().len());
//! ```

pub mod csv;
mod gen;
mod model;
pub mod stats;

pub use gen::PopulationConfig;
pub use model::{
    shard_ranges, AdSlot, AppId, Session, SessionLimitError, ShardIndex, Trace, UserId, UserSlots,
};
pub use stats::TraceStats;

/// The largest population a trace may declare, 2^24 users: 16× the
/// largest pinned run (`scale-1m`, 2^20 users). Every consumer builds
/// per-user state for the whole population up front (a shard-index entry
/// per user; a client per user in each engine, ≈ 7.6 KB each when served),
/// so a population read from outside (a CSV trace's user ids or `#meta`
/// line, a `--users` flag, a serve stream's header) past it is refused
/// with an error, not attempted as an allocation the host cannot make.
pub const MAX_USERS: u32 = 1 << 24;
