//! Simulation reports.

use adpf_energy::EnergyBreakdown;
use adpf_obs::{Histogram, MetricRegistry};
use adpf_overbooking::LedgerTotals;

/// Registry names of the counts a [`SimReport`] reads out of its
/// metrics. The engine counts into these, and nothing else keeps a copy.
pub(crate) mod metric_names {
    pub(crate) const SLOTS: &str = "sim.event.slot";
    pub(crate) const IMPRESSIONS: &str = "sim.impressions";
    pub(crate) const CACHE_HITS: &str = "sim.cache_hits";
    pub(crate) const REALTIME_FETCHES: &str = "sim.realtime_fetches";
    pub(crate) const UNFILLED: &str = "sim.unfilled";
    pub(crate) const SYNCS: &str = "sim.syncs";
    pub(crate) const SYNCS_SKIPPED: &str = "sim.syncs_skipped";
    pub(crate) const SYNCS_DROPPED: &str = "sim.syncs_dropped";
    pub(crate) const REPLICAS_REGISTERED: &str = "overbooking.replicas_registered";
    pub(crate) const RESCUES: &str = "overbooking.rescues";
    pub(crate) const NETEM_SYNC_FAILURES: &str = "netem.sync_failures";
    pub(crate) const NETEM_RETRIES_SCHEDULED: &str = "netem.retries_scheduled";
    pub(crate) const NETEM_RETRIES_SUCCEEDED: &str = "netem.retries_succeeded";
    pub(crate) const NETEM_SYNCS_ABANDONED: &str = "netem.syncs_abandoned";
    pub(crate) const NETEM_REALTIME_FAILURES: &str = "netem.realtime_failures";
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

use metric_names::*;

/// How one hashed count reads its words out of the registry.
#[derive(Debug, Clone, Copy)]
enum Count {
    /// One counter.
    Counter(&'static str),
    /// One fact the registry keeps in two counters, fed as their sum.
    Sum(&'static str, &'static str),
    /// A histogram: count, sum, min, max, then every nonzero bucket as
    /// `(index, samples)`.
    Histogram(&'static str),
}

/// A run of hashed counts, fed to [`SimReport::stable_hash`] at one place
/// in its byte stream.
struct Group {
    /// Fed only when one of its words is nonzero, so that runs without
    /// the layer keep the byte stream, and the pinned hashes, they had
    /// before the layer existed.
    gated: bool,
    counts: &'static [Count],
}

/// Slot outcomes, fed after `users` and `days`.
const OUTCOMES: Group = Group {
    gated: false,
    counts: &[
        Count::Counter(SLOTS),
        Count::Counter(IMPRESSIONS),
        Count::Counter(CACHE_HITS),
        Count::Counter(REALTIME_FETCHES),
        Count::Counter(UNFILLED),
    ],
};

/// Syncs and replicas, fed after the energy terms; the replicas an ad
/// got at sale plus those a rescue added.
const SYNCS_GROUP: Group = Group {
    gated: false,
    counts: &[
        Count::Counter(SYNCS),
        Count::Counter(SYNCS_SKIPPED),
        Count::Counter(SYNCS_DROPPED),
        Count::Sum(REPLICAS_REGISTERED, RESCUES),
    ],
};

/// Network emulation; all zero when netem is disabled. A rescue happens
/// only under netem, so `overbooking.rescues` counts its rescued ads.
const NETEM: Group = Group {
    gated: true,
    counts: &[
        Count::Counter(NETEM_SYNC_FAILURES),
        Count::Counter(NETEM_RETRIES_SCHEDULED),
        Count::Counter(NETEM_RETRIES_SUCCEEDED),
        Count::Counter(NETEM_SYNCS_ABANDONED),
        Count::Counter(NETEM_REALTIME_FAILURES),
        Count::Counter(RESCUES),
        Count::Counter(NETEM_RESCUES_UNPLACED),
    ],
};

/// The scenario layer's user-side costs; all zero when it is disabled.
const SCENARIO: Group = Group {
    gated: true,
    counts: &[
        Count::Counter(SCEN_METERED_BYTES_DOWN),
        Count::Counter(SCEN_METERED_BYTES_UP),
        Count::Counter(SCEN_WASTED_BYTES),
        Count::Counter(SCEN_WASTED_ADS),
        Count::Counter(SCEN_CAP_BLOCKED_SYNCS),
        Count::Counter(SCEN_CELL_DROPPED),
        Count::Counter(SCEN_CELL_DEFERRED),
        Count::Histogram(SCEN_DISPLAY_LATENCY_MS),
    ],
};

/// Every count [`SimReport::stable_hash`] and `==` read, in hash byte
/// order. A metric that is not here moves neither.
const HASHED: [&Group; 4] = [&OUTCOMES, &SYNCS_GROUP, &NETEM, &SCENARIO];

/// Benchmark shim for the scenario counts, filled from
/// [`SimReport::metrics`]; deleted once `benchmark/` rebinds.
#[derive(Debug, Clone, Default)]
pub struct ScenarioCounters {
    pub metered_bytes_down: u64,
    pub metered_bytes_up: u64,
    pub cap_blocked_syncs: u64,
}

impl ScenarioCounters {
    /// Benchmark shim; deleted once `benchmark/` rebinds.
    pub fn metered_bytes(&self) -> u64 {
        self.metered_bytes_down + self.metered_bytes_up
    }
}

/// Everything one simulation run measures: what a counter registry
/// cannot hold exactly, plus the registry that holds every count.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Configuration summary (from `SystemConfig::describe`).
    pub config: String,
    /// Users simulated.
    pub users: u32,
    /// Trace length in days.
    pub days: u32,
    /// Aggregate ad-related radio energy across all clients.
    pub energy: EnergyBreakdown,
    /// Per-user total ad radio energy in joules, indexed by user id — the
    /// raw series behind the paper's per-user savings CDF.
    pub per_user_energy_j: Vec<f64>,
    /// Exchange/billing totals.
    pub ledger: LedgerTotals,
    /// The run's metrics, its shards' merged in shard order: every count
    /// the accessors read, plus spectators (`phase.*` timers, `proc.*`
    /// host facts, layer counters) that take no part in the hash or `==`.
    pub metrics: MetricRegistry,
    /// Benchmark shim, filled from `metrics`; deleted once `benchmark/` rebinds.
    pub slots: u64,
    /// Benchmark shim, filled from `metrics`; deleted once `benchmark/` rebinds.
    pub syncs: u64,
    /// Benchmark shim, filled from `metrics`; deleted once `benchmark/` rebinds.
    pub syncs_skipped: u64,
    /// Benchmark shim, filled from `metrics`; deleted once `benchmark/` rebinds.
    pub scenario: ScenarioCounters,
}

/// Stored fields and every hashed count. Nothing else in `metrics` takes
/// part, so timers, host facts and counters outside `HASHED` never
/// make two reports differ.
impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.users == other.users
            && self.days == other.days
            && self.energy == other.energy
            && self.per_user_energy_j == other.per_user_energy_j
            && self.ledger == other.ledger
            && HASHED.iter().all(|g| self.fed(g) == other.fed(g))
    }
}

impl SimReport {
    /// The identity element of [`SimReport::merge`]: a report of zero
    /// users over zero slots, with every counter at zero.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Accumulates another (disjoint) run's results into this report.
    ///
    /// This is the reduction step of sharded simulation: the registries
    /// merge (counters sum exactly), energy terms and ledger totals sum,
    /// `days` takes the maximum (shards share one horizon), and
    /// `per_user_energy_j` concatenates, so merging shards in shard order
    /// rebuilds the original user indexing (shards hold contiguous user
    /// ranges). Merging in a fixed order also fixes the floating-point
    /// summation order, which keeps merged reports deterministic. An
    /// empty `config` adopts the other's, so [`SimReport::empty`] is a
    /// true identity.
    pub fn merge(&mut self, other: &SimReport) {
        if self.config.is_empty() {
            self.config = other.config.clone();
        }
        self.users += other.users;
        self.days = self.days.max(other.days);
        self.energy.absorb(&other.energy);
        self.per_user_energy_j
            .extend_from_slice(&other.per_user_energy_j);
        self.ledger.merge(&other.ledger);
        self.metrics.merge(&other.metrics);
        self.fill_shims();
    }

    /// Re-reads the benchmark shim fields from `metrics`.
    pub(crate) fn fill_shims(&mut self) {
        self.slots = self.slots();
        self.syncs = self.syncs();
        self.syncs_skipped = self.syncs_skipped();
        self.scenario = ScenarioCounters {
            metered_bytes_down: self.count(SCEN_METERED_BYTES_DOWN),
            metered_bytes_up: self.count(SCEN_METERED_BYTES_UP),
            cap_blocked_syncs: self.count(SCEN_CAP_BLOCKED_SYNCS),
        };
    }

    /// Pre-sizes the per-user accumulator for a merge over `users` total
    /// users, so a shard-ordered reduction appends into one allocation
    /// instead of regrowing per shard.
    pub fn reserve_users(&mut self, users: usize) {
        self.per_user_energy_j.reserve_exact(users);
    }

    fn count(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// Total ad slots that occurred.
    pub fn slots(&self) -> u64 {
        self.count(SLOTS)
    }

    /// Slots filled with a paid ad (cache hit or real-time fetch).
    pub fn impressions(&self) -> u64 {
        self.count(IMPRESSIONS)
    }

    /// Slots served from the prefetch cache.
    pub fn cache_hits(&self) -> u64 {
        self.count(CACHE_HITS)
    }

    /// Slots served by a real-time fallback fetch.
    pub fn realtime_fetches(&self) -> u64 {
        self.count(REALTIME_FETCHES)
    }

    /// Slots left unfilled (no buyer, no cached ad, or the fetch failed).
    pub fn unfilled(&self) -> u64 {
        self.count(UNFILLED)
    }

    /// Syncs that actually woke the radio.
    pub fn syncs(&self) -> u64 {
        self.count(SYNCS)
    }

    /// Syncs skipped because there was nothing to move.
    pub fn syncs_skipped(&self) -> u64 {
        self.count(SYNCS_SKIPPED)
    }

    /// Periodic syncs lost to injected faults (device unreachable).
    pub fn syncs_dropped(&self) -> u64 {
        self.count(SYNCS_DROPPED)
    }

    /// Insurance replicas assigned across all sold ads (holders beyond
    /// the primary), deadline rescues included.
    pub fn replicas_assigned(&self) -> u64 {
        self.count(REPLICAS_REGISTERED) + self.count(RESCUES)
    }

    /// Bytes moved over metered links, both directions.
    pub fn metered_bytes(&self) -> u64 {
        self.count(SCEN_METERED_BYTES_DOWN) + self.count(SCEN_METERED_BYTES_UP)
    }

    /// Ad display latency in milliseconds, one sample per displayed ad
    /// (scenario layer only; empty without it).
    pub fn display_latency_ms(&self) -> Histogram {
        self.metrics
            .histogram_snapshot(SCEN_DISPLAY_LATENCY_MS)
            .unwrap_or_default()
    }

    /// The words `group` feeds the hash, in order: none for a gated group
    /// whose layer left no trace in this run.
    fn fed(&self, group: &Group) -> Vec<u64> {
        let mut words = Vec::new();
        for &count in group.counts {
            match count {
                Count::Counter(name) => words.push(self.count(name)),
                Count::Sum(a, b) => words.push(self.count(a) + self.count(b)),
                Count::Histogram(name) => {
                    let h = self.metrics.histogram_snapshot(name).unwrap_or_default();
                    words.extend([h.count(), h.sum(), h.min(), h.max()]);
                    for (i, n) in h.nonzero_buckets() {
                        words.extend([i as u64, n]);
                    }
                }
            }
        }
        if group.gated && words.iter().all(|&w| w == 0) {
            words.clear();
        }
        words
    }

    /// Ad energy per displayed impression, in joules; `0.0` with no
    /// impressions.
    pub fn energy_per_impression_j(&self) -> f64 {
        match self.impressions() {
            0 => 0.0,
            n => self.energy.total_j() / n as f64,
        }
    }

    /// Fraction of slots served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        match self.slots() {
            0 => 0.0,
            n => self.cache_hits() as f64 / n as f64,
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
            self.syncs() as f64 / user_days
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
            self.slots(),
            self.impressions(),
            self.cache_hit_rate() * 100.0,
            self.realtime_fetches(),
            self.unfilled(),
            self.energy.total_j(),
            self.energy.promotion_j,
            self.energy.transfer_j,
            self.energy.tail_j,
            self.energy_per_impression_j(),
            self.syncs(),
            self.syncs_skipped(),
            self.revenue(),
            self.ledger.sold,
            self.ledger.billed,
            self.ledger.expired,
            self.sla_violation_rate() * 100.0,
            self.ledger.duplicates,
        );
        if !self.fed(&NETEM).is_empty() {
            s.push_str(&format!(
                "\n  netem: sync failures={} retries={}/{} abandoned={} rt failures={} rescued={} (+{} unplaced)",
                self.count(NETEM_SYNC_FAILURES),
                self.count(NETEM_RETRIES_SUCCEEDED),
                self.count(NETEM_RETRIES_SCHEDULED),
                self.count(NETEM_SYNCS_ABANDONED),
                self.count(NETEM_REALTIME_FAILURES),
                self.count(RESCUES),
                self.count(NETEM_RESCUES_UNPLACED),
            ));
        }
        if !self.fed(&SCENARIO).is_empty() {
            let lat = self.display_latency_ms();
            s.push_str(&format!(
                "\n  scenario: metered={:.2} MB (down {:.2} / up {:.2}) wasted={:.2} MB ({} ads) cap-blocked={} cell drop/defer={}/{} display-lat p50/p95/p99={}/{}/{} ms",
                self.metered_bytes() as f64 / 1e6,
                self.count(SCEN_METERED_BYTES_DOWN) as f64 / 1e6,
                self.count(SCEN_METERED_BYTES_UP) as f64 / 1e6,
                self.count(SCEN_WASTED_BYTES) as f64 / 1e6,
                self.count(SCEN_WASTED_ADS),
                self.count(SCEN_CAP_BLOCKED_SYNCS),
                self.count(SCEN_CELL_DROPPED),
                self.count(SCEN_CELL_DEFERRED),
                lat.quantile_upper_bound(0.50),
                lat.quantile_upper_bound(0.95),
                lat.quantile_upper_bound(0.99),
            ));
        }
        s
    }

    /// FNV-1a over a canonical byte serialization of the stored fields
    /// and the counts in `HASHED`.
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
        let [outcomes, after_energy @ ..] = HASHED;
        for w in self.fed(outcomes) {
            h.write_u64(w);
        }
        h.write_f64(self.energy.promotion_j);
        h.write_f64(self.energy.transfer_j);
        h.write_f64(self.energy.tail_j);
        h.write_u64(self.energy.transfers);
        h.write_u64(self.energy.promotions);
        h.write_u64(self.energy.bytes_down);
        h.write_u64(self.energy.bytes_up);
        h.write_u64(self.energy.active_time.as_millis());
        for w in after_energy.iter().flat_map(|g| self.fed(g)) {
            h.write_u64(w);
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
        let r = SimReport {
            config: "test".into(),
            users: 1,
            days: 1,
            energy: EnergyBreakdown {
                transfer_j: energy_j,
                ..EnergyBreakdown::default()
            },
            per_user_energy_j: vec![energy_j],
            ledger: LedgerTotals {
                revenue,
                ..LedgerTotals::default()
            },
            ..SimReport::empty()
        };
        for name in [SLOTS, IMPRESSIONS, REALTIME_FETCHES] {
            r.metrics.add(name, impressions);
        }
        r
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
        r.metrics.add(SYNCS, 24);
        assert!((r.syncs_per_user_day() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_concatenates_users() {
        let mut a = report(100.0, 10.0, 50);
        a.metrics.add(CACHE_HITS, 30);
        a.metrics.add(SYNCS, 7);
        a.ledger.sold = 40;
        let mut b = report(40.0, 4.0, 20);
        b.metrics.add(CACHE_HITS, 10);
        b.metrics.add(SYNCS, 3);
        b.ledger.sold = 15;
        b.days = 3;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.users, 2);
        assert_eq!(merged.days, 3, "days take the max, not the sum");
        assert_eq!(merged.slots(), 70);
        assert_eq!(merged.impressions(), 70);
        assert_eq!(merged.cache_hits(), 40);
        assert_eq!(merged.syncs(), 10);
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
        a.metrics.add(NETEM_SYNC_FAILURES, 3);
        a.metrics.add(NETEM_RETRIES_SCHEDULED, 2);
        let b = report(1.0, 1.0, 1);
        b.metrics.add(NETEM_SYNC_FAILURES, 4);
        b.metrics.add(RESCUES, 1);
        a.merge(&b);
        assert_eq!(a.metrics.counter_value(NETEM_SYNC_FAILURES), 7);
        assert_eq!(a.metrics.counter_value(NETEM_RETRIES_SCHEDULED), 2);
        assert_eq!(a.replicas_assigned(), 1, "a rescue adds a replica");
        assert!(a.summary().contains("netem"));
        assert!(a.summary().contains("rescued=1"));
    }

    /// Two shard reports whose registries hold `group`'s counters, and
    /// the registry merge of the two registries on their own.
    fn shards_over(group: &Group) -> (SimReport, SimReport, MetricRegistry) {
        let (a, b) = (report(1.0, 1.0, 1), report(2.0, 1.0, 2));
        for (k, &count) in group.counts.iter().enumerate() {
            let k = k as u64;
            match count {
                Count::Counter(name) => {
                    a.metrics.add(name, 3 * k + 1);
                    b.metrics.add(name, k % 2);
                }
                Count::Sum(x, y) => {
                    a.metrics.add(x, k);
                    b.metrics.add(y, k);
                }
                Count::Histogram(name) => {
                    for s in [0, 120, 450] {
                        a.metrics.observe(name, s);
                    }
                    for s in [0, 0, 900] {
                        b.metrics.observe(name, s);
                    }
                }
            }
        }
        let mut merged = a.metrics.clone();
        merged.merge(&b.metrics);
        (a, b, merged)
    }

    #[test]
    fn netem_counts_merge_through_the_registry() {
        // The report merge is the registry merge: merged counts read the
        // same through the report as through a registry merged on its
        // own, and a run that never touched netem feeds no netem words.
        let (mut a, b, merged) = shards_over(&NETEM);
        a.merge(&b);
        for &count in NETEM.counts {
            let Count::Counter(name) = count else {
                unreachable!("netem counts are counters")
            };
            assert_eq!(a.metrics.counter_value(name), merged.counter_value(name));
        }
        assert!(!a.fed(&NETEM).is_empty());
        assert!(SimReport::empty().fed(&NETEM).is_empty());
    }

    #[test]
    fn scenario_counts_merge_through_the_registry() {
        // Same for the scenario layer, histogram included: it merges
        // bucket-wise, so shard order cannot change it.
        let (mut a, b, merged) = shards_over(&SCENARIO);
        a.merge(&b);
        assert_eq!(
            a.fed(&SCENARIO),
            SimReport {
                metrics: merged,
                ..SimReport::empty()
            }
            .fed(&SCENARIO)
        );
        let metered = a.count(SCEN_METERED_BYTES_DOWN) + a.count(SCEN_METERED_BYTES_UP);
        assert_eq!(a.metered_bytes(), metered);
        assert_eq!(a.display_latency_ms().count(), 6);
        assert!(a.display_latency_ms().quantile_upper_bound(0.99) >= 900);
        assert!(SimReport::empty().fed(&SCENARIO).is_empty());
    }

    #[test]
    fn scenario_counters_gate_summary_and_hash() {
        let plain = report(1.0, 1.0, 1);
        assert!(
            !plain.summary().contains("scenario"),
            "all-default scenario stays out of the summary"
        );
        let with = plain.clone();
        with.metrics.add(SCEN_METERED_BYTES_DOWN, 4096);
        with.metrics.add(SCEN_WASTED_ADS, 1);
        with.metrics.observe(SCEN_DISPLAY_LATENCY_MS, 250);
        assert!(with.summary().contains("scenario"));
        assert_ne!(
            plain.stable_hash(),
            with.stable_hash(),
            "populated scenario counters change the hash"
        );
        let mut merged = plain.clone();
        merged.merge(&with);
        assert_eq!(merged.metered_bytes(), 4096);
        assert_eq!(merged.display_latency_ms().count(), 1);
    }

    #[test]
    fn counters_outside_the_table_move_neither_hash_nor_eq() {
        let plain = report(1.0, 1.0, 3);
        let probed = plain.clone();
        probed.metrics.add("audit.probe", 1);
        probed.metrics.gauge_max("audit.peak", 9);
        probed.metrics.observe("audit.lat", 5);
        assert_eq!(probed.stable_hash(), plain.stable_hash());
        assert_eq!(probed, plain);
        // A hashed counter does move both.
        probed.metrics.add(UNFILLED, 1);
        assert_ne!(probed.stable_hash(), plain.stable_hash());
        assert_ne!(probed, plain);
    }

    #[test]
    fn phase_timers_and_host_facts_never_affect_eq() {
        let plain = report(1.0, 1.0, 3);
        let timed = plain.clone();
        timed.metrics.add_time_ns("phase.event_loop", 12_345);
        timed.metrics.add_time_ns("phase.merge", 1);
        timed.metrics.gauge_max(adpf_obs::PEAK_RSS_METRIC, 4096);
        timed.metrics.add("proc.auction.ahead_auctions", 7);
        assert_eq!(timed, plain);
        assert_eq!(timed.stable_hash(), plain.stable_hash());
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
