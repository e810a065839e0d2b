//! Host facts about this process: peak resident memory and CPU time.

/// Resets the kernel's resident-set high-water mark (VmHWM) to the
/// current resident size, so the next reading bounds only what ran in
/// between. Returns whether the kernel accepted the reset; a sandbox
/// may refuse it, and then peak readings include set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB since the last accepted reset (or
/// process start); `0.0` where `/proc` does not expose it.
pub fn peak_rss_mb() -> f64 {
    adpf_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU seconds this process (all threads) has used.
///
/// Read from `/proc/self/stat` in clock ticks; Linux reports 100 ticks
/// per second on every supported architecture, so the resolution is
/// 10 ms — enough for runs of seconds. `0.0` where unavailable.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SEC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // Holds on any host with a readable /proc; elsewhere both are 0.
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn peak_rss_is_still_readable_after_a_reset() {
        // Other tests allocate on their own threads meanwhile, so the
        // only process-wide fact to hold is that a reading remains.
        let before = peak_rss_mb();
        if reset_peak_rss() && before > 0.0 {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
