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
