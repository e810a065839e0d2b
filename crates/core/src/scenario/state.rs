//! The engine-side scenario state of one shard.

use adpf_desim::{SimDuration, SimTime};
use adpf_energy::RadioProfile;
use adpf_obs::{MetricId, MetricRegistry};

use super::{class_index, region_index, CellCapacity, CellPolicy, DeviceClass, CAP_PERIOD_MS};
use crate::report::metric_names;
use crate::SystemConfig;

/// Per-client class/region assignments, data-cap accounting, the
/// per-region cell-capacity windows, and the ids of the user-cost
/// metrics they feed. An engine builds one only when
/// `config.scenario.enabled`; its absence IS the scenario-off gate (the
/// legacy path pays one `Option` check and registers no metric).
pub(crate) struct ScenarioState {
    /// Resolved device classes. Never empty: a scenario with no classes
    /// gets one uniform class wrapping the config's base radio.
    classes: Vec<DeviceClass>,
    /// Per-client class index.
    class_of: Vec<u16>,
    /// Per-client cell region.
    region: Vec<u32>,
    /// Per-client metered flag (classes[class_of[i]].metered, flattened
    /// for the hot path).
    metered: Vec<bool>,
    /// Per-client period cap in bytes (0 = uncapped), flattened.
    cap_bytes: Vec<u64>,
    /// Metered bytes used in the client's current billing period.
    metered_used: Vec<u64>,
    /// Billing-period index the usage above belongs to (lazy reset).
    cap_period: Vec<u64>,
    cell_on: bool,
    /// This shard's share of the population-wide per-region ceiling.
    cell_limit: u32,
    cell_policy: CellPolicy,
    /// Current window index per region (u64::MAX = untouched).
    cell_window: Vec<u64>,
    /// Fetches admitted per region in the current window.
    cell_used: Vec<u32>,
    /// One creative's `(down, up)` bytes: a fetch's transfer size and
    /// the cost of a wasted prefetch.
    ad_bytes: (u64, u64),
    metered_down: MetricId,
    metered_up: MetricId,
    wasted_bytes: MetricId,
    wasted_ads: MetricId,
    cap_blocked: MetricId,
    cell_dropped: MetricId,
    cell_deferred: MetricId,
    display_latency: MetricId,
}

impl ScenarioState {
    /// Assigns each of `num_users` clients its class and region, then
    /// registers the scenario metrics in `obs`.
    pub(crate) fn new(config: &SystemConfig, num_users: usize, obs: &MetricRegistry) -> Self {
        let sc = &config.scenario;
        let classes: Vec<DeviceClass> = if sc.classes.is_empty() {
            vec![DeviceClass {
                name: "uniform".into(),
                radio: config.radio.clone(),
                metered: true,
                monthly_cap_bytes: 0,
                weight: 1.0,
                session_scale: 1.0,
            }]
        } else {
            sc.classes.clone()
        };
        let mut class_of = Vec::with_capacity(num_users);
        let mut region = Vec::with_capacity(num_users);
        let mut metered = Vec::with_capacity(num_users);
        let mut cap_bytes = Vec::with_capacity(num_users);
        for u in 0..num_users {
            // Assignments key on the *global* user id, so every shard
            // (and the trace generator) agrees on who is who.
            let g = sc.user_offset as u64 + u as u64;
            let k = class_index(sc.assign_seed, g, &classes);
            class_of.push(k as u16);
            region.push(region_index(sc.assign_seed, g, CellCapacity::REGIONS));
            metered.push(classes[k].metered);
            cap_bytes.push(classes[k].monthly_cap_bytes);
        }
        let regions = CellCapacity::REGIONS as usize;
        // Scale the population-wide ceiling down to this shard's user
        // share (budget_fraction already carries exactly that ratio), so
        // sharded runs enforce the same aggregate ceiling regardless of
        // shard count.
        let cell_limit =
            (((sc.cell.fetches_per_window as f64) * config.budget_fraction).round() as u32).max(1);
        ScenarioState {
            classes,
            class_of,
            region,
            metered,
            cap_bytes,
            metered_used: vec![0; num_users],
            cap_period: vec![0; num_users],
            cell_on: sc.cell.enabled,
            cell_limit,
            cell_policy: sc.cell.policy,
            cell_window: vec![u64::MAX; regions],
            cell_used: vec![0; regions],
            ad_bytes: (config.ad_bytes_down, config.ad_bytes_up),
            metered_down: obs.counter(metric_names::SCEN_METERED_BYTES_DOWN),
            metered_up: obs.counter(metric_names::SCEN_METERED_BYTES_UP),
            wasted_bytes: obs.counter(metric_names::SCEN_WASTED_BYTES),
            wasted_ads: obs.counter(metric_names::SCEN_WASTED_ADS),
            cap_blocked: obs.counter(metric_names::SCEN_CAP_BLOCKED_SYNCS),
            cell_dropped: obs.counter(metric_names::SCEN_CELL_DROPPED),
            cell_deferred: obs.counter(metric_names::SCEN_CELL_DEFERRED),
            display_latency: obs.histogram(metric_names::SCEN_DISPLAY_LATENCY_MS),
        }
    }

    /// The radio of client `ci`'s device class.
    pub(crate) fn radio(&self, ci: usize) -> &RadioProfile {
        &self.classes[self.class_of[ci] as usize].radio
    }

    /// The longest radio tail of any class: the end-of-trace flush point
    /// at which no class loses tail energy.
    pub(crate) fn longest_tail(&self) -> SimDuration {
        self.classes
            .iter()
            .map(|c| c.radio.tail_duration())
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Admits a realtime fetch through the per-region cell-capacity
    /// ceiling. Returns the queueing delay to charge (zero off the
    /// ceiling), or `None` when the region is saturated and the policy
    /// drops the fetch — the caller leaves the slot unfilled.
    pub(crate) fn cell_admit(
        &mut self,
        ci: usize,
        now: SimTime,
        obs: &MetricRegistry,
    ) -> Option<SimDuration> {
        if !self.cell_on {
            return Some(SimDuration::ZERO);
        }
        let r = self.region[ci] as usize;
        let w = now.as_millis() / CellCapacity::WINDOW.as_millis();
        if self.cell_window[r] != w {
            self.cell_window[r] = w;
            self.cell_used[r] = 0;
        }
        self.cell_used[r] += 1;
        if self.cell_used[r] <= self.cell_limit {
            return Some(SimDuration::ZERO);
        }
        match self.cell_policy {
            CellPolicy::Drop => {
                obs.inc(self.cell_dropped, 1);
                None
            }
            CellPolicy::Defer => {
                obs.inc(self.cell_deferred, 1);
                Some(CellCapacity::QUEUE_DELAY)
            }
        }
    }

    /// Whether client `ci`'s data budget for the period containing `now`
    /// is exhausted, which blocks prefetch syncing; counted when it
    /// does. Lazily resets usage at period boundaries.
    pub(crate) fn prefetch_cap_blocks(
        &mut self,
        ci: usize,
        now: SimTime,
        obs: &MetricRegistry,
    ) -> bool {
        let cap = self.cap_bytes[ci];
        if cap == 0 {
            return false;
        }
        let period = now.as_millis() / CAP_PERIOD_MS;
        if self.cap_period[ci] != period {
            self.cap_period[ci] = period;
            self.metered_used[ci] = 0;
        }
        if self.metered_used[ci] < cap {
            return false;
        }
        obs.inc(self.cap_blocked, 1);
        true
    }

    /// Adds a transfer to the metered-bytes accounting when the client's
    /// traffic is metered.
    pub(crate) fn meter(&mut self, ci: usize, down: u64, up: u64, obs: &MetricRegistry) {
        if !self.metered[ci] {
            return;
        }
        obs.inc(self.metered_down, down);
        obs.inc(self.metered_up, up);
        self.metered_used[ci] += down + up;
    }

    /// Records the user-facing display latency of an ad shown from the
    /// cache: it renders instantly.
    pub(crate) fn record_cache_hit(&self, obs: &MetricRegistry) {
        obs.observe_id(self.display_latency, 0);
    }

    /// Records the user-facing display latency of a fetched ad: the
    /// class radio's transfer time for one creative plus any link
    /// latency and cell queueing delay (`extra`).
    pub(crate) fn record_fetch(&self, ci: usize, extra: SimDuration, obs: &MetricRegistry) {
        let (down, up) = self.ad_bytes;
        let t = self.radio(ci).transfer_time(down, up) + extra;
        obs.observe_id(self.display_latency, t.as_millis());
    }

    /// Counts a prefetched ad nobody displayed: the bytes that moved it
    /// were pure user cost. One creative download is the lower bound
    /// (replicas of the same ad add more).
    pub(crate) fn record_wasted_ad(&self, obs: &MetricRegistry) {
        obs.inc(self.wasted_ads, 1);
        obs.inc(self.wasted_bytes, self.ad_bytes.0);
    }
}
