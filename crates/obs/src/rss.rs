//! Process-memory high-water instrumentation.
//!
//! The streaming shard pipeline's whole claim is a *memory* bound —
//! peak RSS stays O(users-per-shard × threads) instead of
//! O(population) — so the bench layer needs a way to observe the bound
//! it advertises. This module reads the kernel's resident-set
//! accounting from `/proc/self/status` and publishes it as a gauge.
//!
//! Host facts are not simulation outcomes: every metric published here
//! lives under the [`PROC_PREFIX`] namespace, which
//! [`crate::MetricRegistry::deterministic_snapshot`] excludes, so RSS
//! gauges never participate in determinism or hash-equivalence checks.

use crate::registry::MetricRegistry;

/// Name prefix of host-fact metrics (process memory, and anything else
/// read from the OS rather than computed by the simulation). Excluded
/// from deterministic snapshots.
pub const PROC_PREFIX: &str = "proc.";

/// Gauge holding the process's lifetime peak resident set size, in KiB.
pub const PEAK_RSS_METRIC: &str = "proc.peak_rss_kb";

/// The process's peak resident set size ("VmHWM") in KiB, or `None`
/// where no `/proc` filesystem exposes it (non-Linux hosts).
///
/// VmHWM is a lifetime high-water mark maintained by the kernel: it
/// only ever grows, so a measurement taken after a workload bounds the
/// memory that workload (plus everything before it in the process) ever
/// held resident.
pub fn peak_rss_kb() -> Option<u64> {
    read_status_kb("VmHWM:")
}

/// Records the current peak RSS into `reg` as the [`PEAK_RSS_METRIC`]
/// gauge (merge-by-max, matching the kernel's own high-water
/// semantics); returns the value in KiB. A no-op returning `None` where
/// RSS is unavailable.
pub fn record_peak_rss(reg: &MetricRegistry) -> Option<u64> {
    let kb = peak_rss_kb()?;
    reg.gauge_max(PEAK_RSS_METRIC, kb);
    Some(kb)
}

/// Parses one `kB`-valued field out of `/proc/self/status`.
fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches(" kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_at_least_current() {
        // On Linux (the only CI target) /proc must be readable; both
        // gauges are in KiB and the high-water mark bounds the current
        // value by definition. `current` is read first: other test
        // threads allocate meanwhile, and a peak read before a later,
        // larger current value would not bound it.
        let (Some(current), Some(peak)) = (read_status_kb("VmRSS:"), peak_rss_kb()) else {
            return; // Non-procfs host: nothing to check.
        };
        assert!(peak > 0);
        assert!(peak >= current);
    }

    #[test]
    fn recorded_gauge_is_excluded_from_deterministic_snapshots() {
        let reg = MetricRegistry::new();
        reg.add("sim.event.slot", 3);
        let Some(kb) = record_peak_rss(&reg) else {
            return;
        };
        assert_eq!(reg.gauge_value(PEAK_RSS_METRIC), kb);
        let det = reg.deterministic_snapshot();
        assert!(
            det.iter().all(|m| !m.name.starts_with(PROC_PREFIX)),
            "host facts must not enter determinism checks"
        );
        assert!(det.iter().any(|m| m.name == "sim.event.slot"));
    }

    #[test]
    fn peak_rss_grows_monotonically() {
        let Some(before) = peak_rss_kb() else { return };
        // Touch a few MiB so the high-water mark has a chance to move;
        // whether it moves or not, it can never shrink.
        let ballast = vec![1u8; 4 << 20];
        std::hint::black_box(&ballast);
        let after = peak_rss_kb().expect("still readable");
        assert!(after >= before);
    }
}
