//! Simulation reports.

use adpf_auction::LedgerTotals;
use adpf_energy::EnergyBreakdown;
use adpf_obs::{Histogram, MetricRegistry};

/// Registry names of the metrics the simulator maintains as the source
/// of truth for [`NetemCounters`] and [`ScenarioCounters`]. The report
/// fields are *derived* from these at finalize, never incremented
/// directly.
pub(crate) mod metric_names {
    pub(crate) const NETEM_SYNC_FAILURES: &str = "netem.sync_failures";
    pub(crate) const NETEM_RETRIES_SCHEDULED: &str = "netem.retries_scheduled";
    pub(crate) const NETEM_RETRIES_SUCCEEDED: &str = "netem.retries_succeeded";
    pub(crate) const NETEM_SYNCS_ABANDONED: &str = "netem.syncs_abandoned";
    pub(crate) const NETEM_REALTIME_FAILURES: &str = "netem.realtime_failures";
    pub(crate) const NETEM_ADS_RESCUED: &str = "netem.ads_rescued";
    pub(crate) const NETEM_RESCUES_UNPLACED: &str = "netem.rescues_unplaced";
    pub(crate) const SCEN_METERED_BYTES_DOWN: &str = "scenario.metered_bytes_down";
    pub(crate) const SCEN_METERED_BYTES_UP: &str = "scenario.metered_bytes_up";
    pub(crate) const SCEN_WASTED_BYTES: &str = "scenario.prefetch_wasted_bytes";
    pub(crate) const SCEN_WASTED_ADS: &str = "scenario.prefetch_wasted_ads";
    pub(crate) const SCEN_CAP_BLOCKED_SYNCS: &str = "scenario.cap_blocked_syncs";
    pub(crate) const SCEN_CELL_DROPPED: &str = "scenario.cell_dropped_fetches";
    pub(crate) const SCEN_CELL_DEFERRED: &str = "scenario.cell_deferred_fetches";
    pub(crate) const SCEN_DISPLAY_LATENCY_MS: &str = "scenario.display_latency_ms";
}

/// Counters produced by network-condition emulation. All zero when netem
/// is disabled, so legacy (netem-less) reports compare and hash equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetemCounters {
    /// Sync round trips that failed on the link (before any retry).
    pub sync_failures: u64,
    /// Client-side retries placed on the event queue.
    pub retries_scheduled: u64,
    /// Retries whose round trip then succeeded.
    pub retries_succeeded: u64,
    /// Sync attempts abandoned after exhausting the retry budget.
    pub syncs_abandoned: u64,
    /// Real-time fetches (status quo or fallback) lost to the link; the
    /// slot goes unfilled — there is no later moment to retry into.
    pub realtime_failures: u64,
    /// Ads re-replicated by the deadline-rescue path because every
    /// holder had gone dark.
    pub ads_rescued: u64,
    /// Rescue attempts that found no reachable client syncing before the
    /// ad's deadline.
    pub rescues_unplaced: u64,
}

impl NetemCounters {
    /// Reads the counters back out of a metric registry (the simulator's
    /// source of truth — see [`metric_names`]). Metrics a run never
    /// touched read as zero, so a netem-less registry derives the
    /// default counters and legacy reports keep comparing equal.
    pub(crate) fn from_metrics(reg: &MetricRegistry) -> Self {
        NetemCounters {
            sync_failures: reg.counter_value(metric_names::NETEM_SYNC_FAILURES),
            retries_scheduled: reg.counter_value(metric_names::NETEM_RETRIES_SCHEDULED),
            retries_succeeded: reg.counter_value(metric_names::NETEM_RETRIES_SUCCEEDED),
            syncs_abandoned: reg.counter_value(metric_names::NETEM_SYNCS_ABANDONED),
            realtime_failures: reg.counter_value(metric_names::NETEM_REALTIME_FAILURES),
            ads_rescued: reg.counter_value(metric_names::NETEM_ADS_RESCUED),
            rescues_unplaced: reg.counter_value(metric_names::NETEM_RESCUES_UNPLACED),
        }
    }

    /// Adds another run's counters into this one.
    pub fn absorb(&mut self, other: &NetemCounters) {
        self.sync_failures += other.sync_failures;
        self.retries_scheduled += other.retries_scheduled;
        self.retries_succeeded += other.retries_succeeded;
        self.syncs_abandoned += other.syncs_abandoned;
        self.realtime_failures += other.realtime_failures;
        self.ads_rescued += other.ads_rescued;
        self.rescues_unplaced += other.rescues_unplaced;
    }
}

/// User-cost counters produced by the scenario layer: bytes over metered
/// networks, prefetch traffic that never turned into a display, data-cap
/// and cell-capacity interventions, and the ad-display-latency
/// distribution. All default (zero) when the scenario layer is disabled,
/// so legacy reports compare and hash equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioCounters {
    /// Downlink bytes moved over metered links (ad payloads, sync
    /// overhead, realtime fetches — everything the plan bills for).
    pub metered_bytes_down: u64,
    /// Uplink bytes moved over metered links.
    pub metered_bytes_up: u64,
    /// Downlink bytes spent prefetching ads that expired undisplayed
    /// (one `ad_bytes_down` per wasted ad — a lower bound; replicas of
    /// the same ad add more).
    pub prefetch_wasted_bytes: u64,
    /// Prefetched ads that expired without a single display.
    pub prefetch_wasted_ads: u64,
    /// Prefetch syncs blocked because the user's data-plan budget for
    /// the current period was exhausted.
    pub cap_blocked_syncs: u64,
    /// Realtime fetches rejected by a saturated cell region (the slot
    /// went unfilled).
    pub cell_dropped_fetches: u64,
    /// Realtime fetches queued behind a saturated cell region (charged
    /// the configured queueing delay).
    pub cell_deferred_fetches: u64,
    /// Ad display latency in milliseconds, one sample per displayed ad:
    /// zero for cache hits, fetch transfer time (plus link latency and
    /// any cell queueing delay) for realtime paths.
    pub display_latency_ms: Histogram,
}

impl ScenarioCounters {
    /// Reads the counters back out of a metric registry (the engine's
    /// source of truth — see [`metric_names`]). Metrics a run never
    /// touched read as zero/empty, so a scenario-less registry derives
    /// the default counters and legacy reports keep comparing equal.
    pub(crate) fn from_metrics(reg: &MetricRegistry) -> Self {
        ScenarioCounters {
            metered_bytes_down: reg.counter_value(metric_names::SCEN_METERED_BYTES_DOWN),
            metered_bytes_up: reg.counter_value(metric_names::SCEN_METERED_BYTES_UP),
            prefetch_wasted_bytes: reg.counter_value(metric_names::SCEN_WASTED_BYTES),
            prefetch_wasted_ads: reg.counter_value(metric_names::SCEN_WASTED_ADS),
            cap_blocked_syncs: reg.counter_value(metric_names::SCEN_CAP_BLOCKED_SYNCS),
            cell_dropped_fetches: reg.counter_value(metric_names::SCEN_CELL_DROPPED),
            cell_deferred_fetches: reg.counter_value(metric_names::SCEN_CELL_DEFERRED),
            display_latency_ms: reg
                .histogram_snapshot(metric_names::SCEN_DISPLAY_LATENCY_MS)
                .unwrap_or_default(),
        }
    }

    /// Adds another run's counters into this one (histogram merges
    /// bucket-wise, so shard-order merging is order-independent here).
    pub fn absorb(&mut self, other: &ScenarioCounters) {
        self.metered_bytes_down += other.metered_bytes_down;
        self.metered_bytes_up += other.metered_bytes_up;
        self.prefetch_wasted_bytes += other.prefetch_wasted_bytes;
        self.prefetch_wasted_ads += other.prefetch_wasted_ads;
        self.cap_blocked_syncs += other.cap_blocked_syncs;
        self.cell_dropped_fetches += other.cell_dropped_fetches;
        self.cell_deferred_fetches += other.cell_deferred_fetches;
        self.display_latency_ms.merge(&other.display_latency_ms);
    }

    /// Total bytes over metered links.
    pub fn metered_bytes(&self) -> u64 {
        self.metered_bytes_down + self.metered_bytes_up
    }

    /// Upper bound on the display-latency quantile `q` in milliseconds;
    /// `0` with no samples.
    pub fn display_latency_p(&self, q: f64) -> u64 {
        self.display_latency_ms.quantile_upper_bound(q)
    }
}

/// Everything one simulation run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Configuration summary (from `SystemConfig::describe`).
    pub config: String,
    /// Users simulated.
    pub users: u32,
    /// Trace length in days.
    pub days: u32,
    /// Total ad slots that occurred.
    pub slots: u64,
    /// Slots filled with a paid ad (cache hit or real-time fetch).
    pub impressions: u64,
    /// Slots served from the prefetch cache.
    pub cache_hits: u64,
    /// Slots served by a real-time fallback fetch.
    pub realtime_fetches: u64,
    /// Slots left unfilled (auction produced no buyer).
    pub unfilled: u64,
    /// Aggregate ad-related radio energy across all clients.
    pub energy: EnergyBreakdown,
    /// Syncs that actually woke the radio.
    pub syncs: u64,
    /// Syncs skipped because there was nothing to move.
    pub syncs_skipped: u64,
    /// Periodic syncs lost to injected faults (device unreachable).
    pub syncs_dropped: u64,
    /// Insurance replicas assigned across all sold ads (holders beyond
    /// the primary).
    pub replicas_assigned: u64,
    /// Network-emulation counters; all zero when netem is disabled.
    pub netem: NetemCounters,
    /// Scenario-layer user-cost counters; all default when the scenario
    /// layer is disabled.
    pub scenario: ScenarioCounters,
    /// Per-user total ad radio energy in joules, indexed by user id — the
    /// raw series behind the paper's per-user savings CDF.
    pub per_user_energy_j: Vec<f64>,
    /// Exchange/billing totals.
    pub ledger: LedgerTotals,
}

impl SimReport {
    /// The identity element of [`SimReport::merge`]: a report of zero
    /// users over zero slots, with every counter at zero.
    pub fn empty() -> Self {
        SimReport {
            config: String::new(),
            users: 0,
            days: 0,
            slots: 0,
            impressions: 0,
            cache_hits: 0,
            realtime_fetches: 0,
            unfilled: 0,
            energy: EnergyBreakdown::default(),
            syncs: 0,
            syncs_skipped: 0,
            syncs_dropped: 0,
            replicas_assigned: 0,
            netem: NetemCounters::default(),
            scenario: ScenarioCounters::default(),
            per_user_energy_j: Vec::new(),
            ledger: LedgerTotals::default(),
        }
    }

    /// Accumulates another (disjoint) run's results into this report.
    ///
    /// This is the reduction step of sharded simulation: every additive
    /// field — users, slots, impressions, sync counters, energy terms,
    /// ledger totals — sums exactly, `days` takes the maximum (shards
    /// share one horizon), and `per_user_energy_j` concatenates, so
    /// merging shards in shard order rebuilds the original user indexing
    /// (shards hold contiguous user ranges). Merging in a fixed order
    /// also fixes the floating-point summation order, which keeps merged
    /// reports deterministic. An empty `config` adopts the other's, so
    /// [`SimReport::empty`] is a true identity.
    pub fn merge(&mut self, other: &SimReport) {
        if self.config.is_empty() {
            self.config = other.config.clone();
        }
        self.users += other.users;
        self.days = self.days.max(other.days);
        self.slots += other.slots;
        self.impressions += other.impressions;
        self.cache_hits += other.cache_hits;
        self.realtime_fetches += other.realtime_fetches;
        self.unfilled += other.unfilled;
        self.energy.absorb(&other.energy);
        self.syncs += other.syncs;
        self.syncs_skipped += other.syncs_skipped;
        self.syncs_dropped += other.syncs_dropped;
        self.replicas_assigned += other.replicas_assigned;
        self.netem.absorb(&other.netem);
        self.scenario.absorb(&other.scenario);
        self.per_user_energy_j
            .extend_from_slice(&other.per_user_energy_j);
        self.ledger.merge(&other.ledger);
    }

    /// Pre-sizes the per-user accumulator for a merge over `users` total
    /// users, so a shard-ordered reduction appends into one allocation
    /// instead of regrowing per shard.
    pub fn reserve_users(&mut self, users: usize) {
        self.per_user_energy_j.reserve_exact(users);
    }

    /// Ad energy per displayed impression, in joules; `0.0` with no
    /// impressions.
    pub fn energy_per_impression_j(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.energy.total_j() / self.impressions as f64
        }
    }

    /// Fraction of slots served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.slots as f64
        }
    }

    /// SLA violation rate over pre-sold ads.
    pub fn sla_violation_rate(&self) -> f64 {
        self.ledger.sla_violation_rate()
    }

    /// Radio-waking syncs per user per day; `0.0` for an empty report
    /// (no users or no days) rather than NaN.
    pub fn syncs_per_user_day(&self) -> f64 {
        let user_days = self.users as f64 * self.days as f64;
        if user_days == 0.0 {
            0.0
        } else {
            self.syncs as f64 / user_days
        }
    }

    /// Billed revenue.
    pub fn revenue(&self) -> f64 {
        self.ledger.revenue
    }

    /// Energy saved relative to a baseline run, as a fraction of the
    /// baseline's energy (the paper's headline metric). Negative when this
    /// run used more energy.
    pub fn energy_savings_vs(&self, baseline: &SimReport) -> f64 {
        let base = baseline.energy.total_j();
        if base <= 0.0 {
            0.0
        } else {
            1.0 - self.energy.total_j() / base
        }
    }

    /// Per-user energy savings relative to a baseline run: one fraction
    /// per user with nonzero baseline energy (users whose ads never cost
    /// anything have no meaningful savings ratio).
    pub fn per_user_savings_vs(&self, baseline: &SimReport) -> Vec<f64> {
        self.per_user_energy_j
            .iter()
            .zip(baseline.per_user_energy_j.iter())
            .filter(|&(_, &base)| base > 0.0)
            .map(|(&mine, &base)| 1.0 - mine / base)
            .collect()
    }

    /// Revenue lost relative to a baseline run, as a fraction of the
    /// baseline's revenue. Negative when this run earned more.
    pub fn revenue_loss_vs(&self, baseline: &SimReport) -> f64 {
        let base = baseline.revenue();
        if base <= 0.0 {
            0.0
        } else {
            1.0 - self.revenue() / base
        }
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}\n  users={} days={} slots={} impressions={} (cache {:.1}%, realtime {}, unfilled {})\n  energy={:.1} J (promo {:.1} / xfer {:.1} / tail {:.1}; {:.3} J/impression)\n  syncs={} (+{} skipped)\n  revenue=${:.2} sold={} billed={} expired={} (SLA viol {:.3}%) duplicates={}",
            self.config,
            self.users,
            self.days,
            self.slots,
            self.impressions,
            self.cache_hit_rate() * 100.0,
            self.realtime_fetches,
            self.unfilled,
            self.energy.total_j(),
            self.energy.promotion_j,
            self.energy.transfer_j,
            self.energy.tail_j,
            self.energy_per_impression_j(),
            self.syncs,
            self.syncs_skipped,
            self.revenue(),
            self.ledger.sold,
            self.ledger.billed,
            self.ledger.expired,
            self.sla_violation_rate() * 100.0,
            self.ledger.duplicates,
        );
        if self.netem != NetemCounters::default() {
            let n = &self.netem;
            s.push_str(&format!(
                "\n  netem: sync failures={} retries={}/{} abandoned={} rt failures={} rescued={} (+{} unplaced)",
                n.sync_failures,
                n.retries_succeeded,
                n.retries_scheduled,
                n.syncs_abandoned,
                n.realtime_failures,
                n.ads_rescued,
                n.rescues_unplaced,
            ));
        }
        if self.scenario != ScenarioCounters::default() {
            let sc = &self.scenario;
            s.push_str(&format!(
                "\n  scenario: metered={:.2} MB (down {:.2} / up {:.2}) wasted={:.2} MB ({} ads) cap-blocked={} cell drop/defer={}/{} display-lat p50/p95/p99={}/{}/{} ms",
                sc.metered_bytes() as f64 / 1e6,
                sc.metered_bytes_down as f64 / 1e6,
                sc.metered_bytes_up as f64 / 1e6,
                sc.prefetch_wasted_bytes as f64 / 1e6,
                sc.prefetch_wasted_ads,
                sc.cap_blocked_syncs,
                sc.cell_dropped_fetches,
                sc.cell_deferred_fetches,
                sc.display_latency_p(0.50),
                sc.display_latency_p(0.95),
                sc.display_latency_p(0.99),
            ));
        }
        s
    }

    /// FNV-1a over a canonical byte serialization of every report field.
    ///
    /// Any change to any simulated outcome — a counter, a float bit, a
    /// per-user energy entry — changes this hash, which is what makes it
    /// a cheap determinism witness: the bench baseline records it, ci.sh
    /// gates on it, and the serve smoke gate compares a live server's
    /// final report against the batch golden through it. Stable across
    /// platforms and dependency-free by construction.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.config.as_bytes());
        h.write_u64(self.users as u64);
        h.write_u64(self.days as u64);
        h.write_u64(self.slots);
        h.write_u64(self.impressions);
        h.write_u64(self.cache_hits);
        h.write_u64(self.realtime_fetches);
        h.write_u64(self.unfilled);
        h.write_f64(self.energy.promotion_j);
        h.write_f64(self.energy.transfer_j);
        h.write_f64(self.energy.tail_j);
        h.write_u64(self.energy.transfers);
        h.write_u64(self.energy.promotions);
        h.write_u64(self.energy.bytes_down);
        h.write_u64(self.energy.bytes_up);
        h.write_u64(self.energy.active_time.as_millis());
        h.write_u64(self.syncs);
        h.write_u64(self.syncs_skipped);
        h.write_u64(self.syncs_dropped);
        h.write_u64(self.replicas_assigned);
        // Netem counters fold in only when any is nonzero: netem-off runs
        // keep the exact pre-netem byte stream, so recorded golden hashes
        // (e.g. the ci.sh smoke golden) stay valid.
        if self.netem != NetemCounters::default() {
            h.write_u64(self.netem.sync_failures);
            h.write_u64(self.netem.retries_scheduled);
            h.write_u64(self.netem.retries_succeeded);
            h.write_u64(self.netem.syncs_abandoned);
            h.write_u64(self.netem.realtime_failures);
            h.write_u64(self.netem.ads_rescued);
            h.write_u64(self.netem.rescues_unplaced);
        }
        // Scenario counters gate the same way: scenario-off runs keep the
        // exact pre-scenario byte stream and the smoke golden survives.
        if self.scenario != ScenarioCounters::default() {
            let sc = &self.scenario;
            h.write_u64(sc.metered_bytes_down);
            h.write_u64(sc.metered_bytes_up);
            h.write_u64(sc.prefetch_wasted_bytes);
            h.write_u64(sc.prefetch_wasted_ads);
            h.write_u64(sc.cap_blocked_syncs);
            h.write_u64(sc.cell_dropped_fetches);
            h.write_u64(sc.cell_deferred_fetches);
            let hist = &sc.display_latency_ms;
            h.write_u64(hist.count());
            h.write_u64(hist.sum());
            h.write_u64(hist.min());
            h.write_u64(hist.max());
            for (i, n) in hist.nonzero_buckets() {
                h.write_u64(i as u64);
                h.write_u64(n);
            }
        }
        h.write_u64(self.per_user_energy_j.len() as u64);
        for &e in &self.per_user_energy_j {
            h.write_f64(e);
        }
        h.write_u64(self.ledger.sold);
        h.write_u64(self.ledger.billed);
        h.write_f64(self.ledger.revenue);
        h.write_f64(self.ledger.sold_value);
        h.write_u64(self.ledger.expired);
        h.write_f64(self.ledger.refunded);
        h.write_u64(self.ledger.duplicates);
        h.write_u64(self.ledger.late_displays);
        h.finish()
    }
}

/// 64-bit FNV-1a, dependency-free and stable across platforms.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(energy_j: f64, revenue: f64, impressions: u64) -> SimReport {
        SimReport {
            config: "test".into(),
            users: 1,
            days: 1,
            slots: impressions,
            impressions,
            cache_hits: 0,
            realtime_fetches: impressions,
            unfilled: 0,
            energy: EnergyBreakdown {
                transfer_j: energy_j,
                ..EnergyBreakdown::default()
            },
            syncs: 0,
            syncs_skipped: 0,
            syncs_dropped: 0,
            replicas_assigned: 0,
            netem: NetemCounters::default(),
            scenario: ScenarioCounters::default(),
            per_user_energy_j: vec![energy_j],
            ledger: LedgerTotals {
                revenue,
                ..LedgerTotals::default()
            },
        }
    }

    #[test]
    fn savings_and_loss_are_relative() {
        let base = report(100.0, 10.0, 50);
        let better = report(40.0, 9.5, 50);
        assert!((better.energy_savings_vs(&base) - 0.6).abs() < 1e-12);
        assert!((better.revenue_loss_vs(&base) - 0.05).abs() < 1e-12);
        assert!(base.energy_savings_vs(&better) < 0.0);
    }

    #[test]
    fn zero_baselines_are_safe() {
        let base = report(0.0, 0.0, 0);
        let other = report(10.0, 1.0, 5);
        assert_eq!(other.energy_savings_vs(&base), 0.0);
        assert_eq!(other.revenue_loss_vs(&base), 0.0);
        assert_eq!(base.energy_per_impression_j(), 0.0);
        assert_eq!(base.cache_hit_rate(), 0.0);
    }

    #[test]
    fn empty_report_ratios_are_zero_not_nan() {
        // Regression: every ratio accessor must return 0.0 (not NaN or a
        // panic) on the all-zero report, so tables and summaries render
        // sanely for degenerate runs.
        let e = SimReport::empty();
        assert_eq!(e.energy_per_impression_j(), 0.0);
        assert_eq!(e.cache_hit_rate(), 0.0);
        assert_eq!(e.sla_violation_rate(), 0.0);
        assert_eq!(e.syncs_per_user_day(), 0.0);
        assert!(!e.summary().contains("NaN"));
    }

    #[test]
    fn ratio_accessors_compute_expected_values() {
        let mut r = report(10.0, 1.0, 8);
        r.users = 4;
        r.days = 2;
        r.syncs = 24;
        assert!((r.syncs_per_user_day() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_concatenates_users() {
        let mut a = report(100.0, 10.0, 50);
        a.cache_hits = 30;
        a.syncs = 7;
        a.ledger.sold = 40;
        let mut b = report(40.0, 4.0, 20);
        b.cache_hits = 10;
        b.syncs = 3;
        b.ledger.sold = 15;
        b.days = 3;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.users, 2);
        assert_eq!(merged.days, 3, "days take the max, not the sum");
        assert_eq!(merged.slots, 70);
        assert_eq!(merged.impressions, 70);
        assert_eq!(merged.cache_hits, 40);
        assert_eq!(merged.syncs, 10);
        assert_eq!(merged.ledger.sold, 55);
        assert!((merged.energy.total_j() - 140.0).abs() < 1e-9);
        assert_eq!(merged.per_user_energy_j, vec![100.0, 40.0]);
        assert!((merged.revenue() - 14.0).abs() < 1e-12);
        assert_eq!(merged.config, a.config, "first config wins");
    }

    #[test]
    fn merge_sums_netem_counters_and_summary_gates_on_them() {
        let mut a = report(1.0, 1.0, 1);
        assert!(
            !a.summary().contains("netem"),
            "all-zero netem stays out of the summary"
        );
        a.netem.sync_failures = 3;
        a.netem.retries_scheduled = 2;
        let mut b = report(1.0, 1.0, 1);
        b.netem.sync_failures = 4;
        b.netem.ads_rescued = 1;
        a.merge(&b);
        assert_eq!(a.netem.sync_failures, 7);
        assert_eq!(a.netem.retries_scheduled, 2);
        assert_eq!(a.netem.ads_rescued, 1);
        assert!(a.summary().contains("netem"));
    }

    #[test]
    fn netem_absorb_equals_registry_merge() {
        // The registry is the source of truth for NetemCounters; folding
        // per-shard registries and then deriving must equal deriving
        // per shard and absorbing — the equivalence the hash-stable
        // SimReport field rests on.

        let fill = |values: [u64; 7]| {
            let reg = MetricRegistry::new();
            let names = [
                metric_names::NETEM_SYNC_FAILURES,
                metric_names::NETEM_RETRIES_SCHEDULED,
                metric_names::NETEM_RETRIES_SUCCEEDED,
                metric_names::NETEM_SYNCS_ABANDONED,
                metric_names::NETEM_REALTIME_FAILURES,
                metric_names::NETEM_ADS_RESCUED,
                metric_names::NETEM_RESCUES_UNPLACED,
            ];
            for (name, v) in names.iter().zip(values) {
                reg.add(name, v);
            }
            reg
        };
        let shard_a = fill([3, 2, 1, 0, 5, 1, 0]);
        let shard_b = fill([4, 0, 0, 2, 1, 0, 3]);

        let mut absorbed = NetemCounters::from_metrics(&shard_a);
        absorbed.absorb(&NetemCounters::from_metrics(&shard_b));

        let mut merged = MetricRegistry::new();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(absorbed, NetemCounters::from_metrics(&merged));

        // An untouched registry derives the all-zero default.
        assert_eq!(
            NetemCounters::from_metrics(&MetricRegistry::new()),
            NetemCounters::default()
        );
    }

    #[test]
    fn scenario_absorb_equals_registry_merge() {
        // Same equivalence as netem: per-shard derive + absorb must equal
        // registry-merge + derive, counters and histogram alike.

        let fill = |counters: [u64; 7], lat_samples: &[u64]| {
            let reg = MetricRegistry::new();
            let names = [
                metric_names::SCEN_METERED_BYTES_DOWN,
                metric_names::SCEN_METERED_BYTES_UP,
                metric_names::SCEN_WASTED_BYTES,
                metric_names::SCEN_WASTED_ADS,
                metric_names::SCEN_CAP_BLOCKED_SYNCS,
                metric_names::SCEN_CELL_DROPPED,
                metric_names::SCEN_CELL_DEFERRED,
            ];
            for (name, v) in names.iter().zip(counters) {
                reg.add(name, v);
            }
            for &s in lat_samples {
                reg.observe(metric_names::SCEN_DISPLAY_LATENCY_MS, s);
            }
            reg
        };
        let shard_a = fill([4096, 512, 8192, 2, 1, 0, 3], &[0, 120, 450]);
        let shard_b = fill([1024, 128, 0, 0, 4, 2, 0], &[0, 0, 900]);

        let mut absorbed = ScenarioCounters::from_metrics(&shard_a);
        absorbed.absorb(&ScenarioCounters::from_metrics(&shard_b));

        let mut merged = MetricRegistry::new();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(absorbed, ScenarioCounters::from_metrics(&merged));
        assert_eq!(absorbed.metered_bytes(), 4096 + 512 + 1024 + 128);
        assert_eq!(absorbed.display_latency_ms.count(), 6);
        assert!(absorbed.display_latency_p(0.99) >= 900);

        // An untouched registry derives the all-zero default.
        assert_eq!(
            ScenarioCounters::from_metrics(&MetricRegistry::new()),
            ScenarioCounters::default()
        );
    }

    #[test]
    fn scenario_counters_gate_summary_and_hash() {
        let plain = report(1.0, 1.0, 1);
        assert!(
            !plain.summary().contains("scenario"),
            "all-default scenario stays out of the summary"
        );
        let mut with = plain.clone();
        with.scenario.metered_bytes_down = 4096;
        with.scenario.prefetch_wasted_ads = 1;
        with.scenario.display_latency_ms.record(250);
        assert!(with.summary().contains("scenario"));
        assert_ne!(
            plain.stable_hash(),
            with.stable_hash(),
            "populated scenario counters change the hash"
        );
        let mut merged = plain.clone();
        merged.merge(&with);
        assert_eq!(merged.scenario.metered_bytes_down, 4096);
        assert_eq!(merged.scenario.display_latency_ms.count(), 1);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let r = report(55.0, 5.0, 12);
        let mut left = SimReport::empty();
        left.merge(&r);
        assert_eq!(left, r, "empty.merge(r) == r, config adopted");
        let mut right = r.clone();
        right.merge(&SimReport::empty());
        assert_eq!(right, r, "r.merge(empty) == r");
    }

    #[test]
    fn summary_contains_key_numbers() {
        let r = report(123.0, 4.5, 10);
        let s = r.summary();
        assert!(s.contains("energy=123.0 J"));
        assert!(s.contains("revenue=$4.50"));
    }
}
