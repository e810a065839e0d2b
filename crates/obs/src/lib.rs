//! Deterministic observability for the ad-prefetching simulator.
//!
//! One registry, smallest possible surface: [`MetricRegistry`] holds
//! counters, high-water gauges, fixed log-linear-bucket [`Histogram`]s
//! and wall-clock timers. Hot paths update through pre-resolved
//! [`MetricId`]s — an array index and an integer add, no allocation, no
//! string hashing, no floating point; publish-at-finalize seams use the
//! dynamic-name methods (`add`, `gauge_max`, `observe`, ...), which
//! register the slot on first use. All metric state is integral, which
//! makes [`MetricRegistry::merge`] exactly associative and commutative
//! for counters, histograms, and gauges: per-shard registries merged in
//! shard order (mirroring `SimReport::merge`) produce the same values
//! regardless of how work was scheduled.
//!
//! Determinism rule of thumb: anything derived from simulated state
//! (counts, simulated durations, sizes) may feed counters/gauges/
//! histograms and will be bit-identical across thread counts; wall-clock
//! time goes only into `time` metrics, which are expected to vary and
//! must never feed back into simulation decisions.

mod export;
mod hist;
mod registry;
mod rss;

pub use export::{render_table, to_json_lines, validate_json_lines};
pub use hist::Histogram;
pub use registry::{MetricId, MetricKind, MetricRegistry, MetricSnapshot, MetricValue};
pub use rss::{peak_rss_kb, record_peak_rss, PEAK_RSS_METRIC, PROC_PREFIX};
