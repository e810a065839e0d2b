//! The per-simulation network model: one deterministic channel per client.

use adpf_desim::{SimDuration, SimTime};
use adpf_obs::{Histogram, MetricRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{LinkState, NetemConfig, RetryPolicy};

/// Shortest and longest dwell a single transition can produce; clamps the
/// exponential tails so the state machine neither spins nor freezes.
const MIN_DWELL: SimDuration = SimDuration::from_secs(1);
const MAX_DWELL: SimDuration = SimDuration::from_hours(48);

/// SplitMix64-style finalizer spreading `(seed, lane)` into a stream id,
/// mirroring the per-user derivation the trace generator uses.
fn mix_stream(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The channel's answer to one radio round-trip attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkVerdict {
    /// Whether the attempt succeeded.
    pub ok: bool,
    /// Link state at attempt time.
    pub state: LinkState,
    /// Extra round-trip stall the radio pays for this attempt (timeout
    /// time when the attempt failed).
    pub latency: SimDuration,
    /// Whether a scheduled outage window covered this client.
    pub outage: bool,
}

/// One client's deterministic link-state trajectory plus attempt/jitter
/// randomness.
///
/// Two independent RNG streams keep the *weather* separate from the
/// *observations*: state transitions draw only from `state_rng`, so the
/// trajectory is a pure function of the seed no matter how often (or
/// whether) the simulator queries the channel; attempt coin flips and
/// backoff jitter draw from `attempt_rng`.
#[derive(Debug, Clone)]
pub(crate) struct ClientChannel {
    state_rng: StdRng,
    attempt_rng: StdRng,
    state: LinkState,
    /// When the current dwell ends and the next transition fires.
    until: SimTime,
    /// Stable region coordinate in `[0, 1)` for outage targeting.
    region: f64,
}

impl ClientChannel {
    /// Builds the channel for client `index` under `stream_seed`.
    pub(crate) fn new(cfg: &NetemConfig, stream_seed: u64, index: u64) -> Self {
        let mut state_rng = StdRng::seed_from_u64(mix_stream(stream_seed, index * 2));
        let attempt_rng = StdRng::seed_from_u64(mix_stream(stream_seed, index * 2 + 1));
        let region = state_rng.gen::<f64>();
        let state = Self::pick_state(cfg, &mut state_rng, None);
        let dwell = Self::sample_dwell(cfg, &mut state_rng, state);
        Self {
            state_rng,
            attempt_rng,
            state,
            until: SimTime::ZERO + dwell,
            region,
        }
    }

    /// Weighted choice of the next state, excluding `current` (staying put
    /// is expressed by the dwell time, not by a self-transition).
    fn pick_state(cfg: &NetemConfig, rng: &mut StdRng, current: Option<LinkState>) -> LinkState {
        let mut total = 0.0;
        for s in LinkState::ALL {
            if Some(s) != current {
                total += cfg.profiles[s as usize].weight;
            }
        }
        if total <= 0.0 {
            // Only the current state has weight; stay in it.
            return current.unwrap_or(LinkState::CellGood);
        }
        let mut x = rng.gen::<f64>() * total;
        for s in LinkState::ALL {
            if Some(s) == current {
                continue;
            }
            x -= cfg.profiles[s as usize].weight;
            if x <= 0.0 {
                return s;
            }
        }
        // Float round-off fell off the end; the last eligible state wins.
        *LinkState::ALL
            .iter()
            .rev()
            .find(|&&s| Some(s) != current)
            .expect("at least one eligible state")
    }

    /// Exponential dwell with the state's mean, clamped to sane bounds.
    fn sample_dwell(cfg: &NetemConfig, rng: &mut StdRng, state: LinkState) -> SimDuration {
        let mean = cfg.profiles[state as usize].dwell_mean;
        let u: f64 = rng.gen();
        let d = mean.mul_f64(-(1.0 - u).max(f64::MIN_POSITIVE).ln());
        SimDuration::from_millis(
            d.as_millis()
                .clamp(MIN_DWELL.as_millis(), MAX_DWELL.as_millis()),
        )
    }

    /// Advances the trajectory so `state` is current at `now`.
    fn advance(&mut self, cfg: &NetemConfig, now: SimTime) {
        while self.until <= now {
            self.state = Self::pick_state(cfg, &mut self.state_rng, Some(self.state));
            let dwell = Self::sample_dwell(cfg, &mut self.state_rng, self.state);
            self.until += dwell;
        }
    }

    /// Link state at `now` (advancing the trajectory as needed).
    pub(crate) fn state_at(&mut self, cfg: &NetemConfig, now: SimTime) -> LinkState {
        self.advance(cfg, now);
        self.state
    }

    /// Whether the client can complete a round trip at `now` at all
    /// (outage and offline checks only — no failure coin flip, no
    /// attempt-RNG draw). Used for dark-holder detection.
    pub fn reachable(&mut self, cfg: &NetemConfig, now: SimTime) -> bool {
        self.advance(cfg, now);
        !self.in_outage(cfg, now) && self.state != LinkState::Offline
    }

    fn in_outage(&self, cfg: &NetemConfig, now: SimTime) -> bool {
        cfg.outages.iter().any(|o| o.covers(now, self.region))
    }

    /// One radio round-trip attempt at `now`.
    pub fn attempt(&mut self, cfg: &NetemConfig, now: SimTime) -> LinkVerdict {
        self.advance(cfg, now);
        let state = self.state;
        let latency = cfg.profiles[state as usize].latency;
        let outage = self.in_outage(cfg, now);
        if outage || state == LinkState::Offline {
            // Fail-fast without consuming attempt randomness: hard-down
            // links have no coin to flip.
            return LinkVerdict {
                ok: false,
                state,
                latency,
                outage,
            };
        }
        let p = cfg.profiles[state as usize].failure_prob;
        let ok = !(p > 0.0 && self.attempt_rng.gen::<f64>() < p);
        LinkVerdict {
            ok,
            state,
            latency,
            outage,
        }
    }

    /// Jittered backoff delay before retry number `attempt` (0-based).
    pub fn backoff(&mut self, retry: &RetryPolicy, attempt: u32) -> SimDuration {
        let raw = retry.raw_delay(attempt);
        let jitter = RetryPolicy::JITTER;
        let scale = 1.0 - jitter / 2.0 + jitter * self.attempt_rng.gen::<f64>();
        SimDuration::from_millis(raw.mul_f64(scale).as_millis().max(1))
    }
}

/// Always-on link statistics, folded into a metric registry at
/// finalize via [`NetworkModel::publish`]. Everything here is a count
/// or a simulated duration, so the published metrics are deterministic.
#[derive(Debug, Clone, Default)]
struct LinkStats {
    attempts: u64,
    failures: u64,
    outage_blocked: u64,
    by_state: [u64; 4],
    backoffs: u64,
    backoff_depth: Histogram,
    backoff_delay_ms: Histogram,
}

/// The per-simulation network: one `ClientChannel` per client.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    cfg: NetemConfig,
    channels: Vec<ClientChannel>,
    stats: LinkStats,
}

impl NetworkModel {
    /// Builds channels for `n_clients` clients under `stream_seed` (the
    /// shard's seed-and-stream mix, so sharded runs stay deterministic).
    pub fn new(cfg: NetemConfig, n_clients: usize, stream_seed: u64) -> Self {
        // Domain-separate netem streams from the simulator's other
        // consumers of `stream_seed` (bid sampling, fault injection).
        let netem_seed = stream_seed ^ 0x6e65_7465_6d00;
        let channels = (0..n_clients)
            .map(|i| ClientChannel::new(&cfg, netem_seed, i as u64))
            .collect();
        Self {
            cfg,
            channels,
            stats: LinkStats::default(),
        }
    }

    /// The retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.cfg.retry
    }

    /// One round-trip attempt by `client` at `now`.
    pub fn attempt(&mut self, client: usize, now: SimTime) -> LinkVerdict {
        let v = self.channels[client].attempt(&self.cfg, now);
        self.stats.attempts += 1;
        self.stats.by_state[v.state as usize] += 1;
        self.stats.failures += (!v.ok) as u64;
        self.stats.outage_blocked += v.outage as u64;
        v
    }

    /// Whether `client` could complete a round trip at `now` (no
    /// attempt-randomness consumed).
    pub fn reachable(&mut self, client: usize, now: SimTime) -> bool {
        self.channels[client].reachable(&self.cfg, now)
    }

    /// `client`'s link state at `now`.
    pub fn state(&mut self, client: usize, now: SimTime) -> LinkState {
        self.channels[client].state_at(&self.cfg, now)
    }

    /// Jittered backoff delay for `client`'s retry number `attempt`.
    pub fn backoff(&mut self, client: usize, attempt: u32) -> SimDuration {
        let retry = self.cfg.retry;
        let d = self.channels[client].backoff(&retry, attempt);
        self.stats.backoffs += 1;
        self.stats.backoff_depth.record(attempt as u64 + 1);
        self.stats.backoff_delay_ms.record(d.as_millis());
        d
    }

    /// Publishes accumulated link statistics: attempt/failure counts,
    /// per-state attempt counts, and backoff depth/delay histograms.
    pub fn publish(&self, reg: &MetricRegistry) {
        let s = &self.stats;
        reg.add("netem.attempts", s.attempts);
        reg.add("netem.attempt_failures", s.failures);
        reg.add("netem.outage_blocked", s.outage_blocked);
        for state in LinkState::ALL {
            let name = match state {
                LinkState::Wifi => "netem.attempts.wifi",
                LinkState::CellGood => "netem.attempts.cell_good",
                LinkState::CellPoor => "netem.attempts.cell_poor",
                LinkState::Offline => "netem.attempts.offline",
            };
            reg.add(name, s.by_state[state as usize]);
        }
        reg.add("netem.backoffs", s.backoffs);
        reg.merge_histogram("netem.backoff_depth", &s.backoff_depth);
        reg.merge_histogram("netem.backoff_delay_ms", &s.backoff_delay_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetemConfig, OutageWindow};

    fn probe_times() -> Vec<SimTime> {
        (0..200).map(|k| SimTime::from_mins(k * 17)).collect()
    }

    #[test]
    fn same_seed_same_trajectory_and_verdicts() {
        let mk = || NetworkModel::new(NetemConfig::flaky_cellular(), 8, 42);
        let (mut a, mut b) = (mk(), mk());
        for t in probe_times() {
            for c in 0..8 {
                assert_eq!(a.attempt(c, t), b.attempt(c, t));
            }
        }
    }

    #[test]
    fn trajectory_is_independent_of_query_pattern() {
        // Channel A is probed densely, channel B sparsely; the underlying
        // weather must agree wherever both are observed.
        let mut dense = NetworkModel::new(NetemConfig::degraded(), 1, 7);
        let mut sparse = NetworkModel::new(NetemConfig::degraded(), 1, 7);
        let mut checked = 0;
        for k in 0..2_000u64 {
            let t = SimTime::from_mins(k * 3);
            let s = dense.state(0, t);
            if k % 29 == 0 {
                assert_eq!(s, sparse.state(0, t), "at {t}");
                checked += 1;
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn attempt_draws_do_not_perturb_the_weather() {
        // Hammering attempts (which consume attempt randomness) must not
        // shift state transitions (which draw from the state stream).
        let mut quiet = NetworkModel::new(NetemConfig::flaky_cellular(), 1, 9);
        let mut noisy = NetworkModel::new(NetemConfig::flaky_cellular(), 1, 9);
        for k in 0..500u64 {
            let t = SimTime::from_mins(k * 11);
            for _ in 0..5 {
                let _ = noisy.attempt(0, t);
            }
            assert_eq!(quiet.state(0, t), noisy.state(0, t));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = NetworkModel::new(NetemConfig::flaky_cellular(), 4, 1);
        let mut b = NetworkModel::new(NetemConfig::flaky_cellular(), 4, 2);
        let diverged = probe_times().iter().any(|&t| {
            (0..4).any(|c| {
                let va = a.attempt(c, t);
                let vb = b.attempt(c, t);
                va.state != vb.state || va.ok != vb.ok
            })
        });
        assert!(diverged, "seeds must matter");
    }

    #[test]
    fn all_states_are_visited_and_failure_rates_are_sane() {
        let mut net = NetworkModel::new(NetemConfig::degraded(), 32, 3);
        let mut seen = [0u64; 4];
        let mut fails = 0u64;
        let mut attempts = 0u64;
        for t in probe_times() {
            for c in 0..32 {
                let v = net.attempt(c, t);
                seen[v.state as usize] += 1;
                attempts += 1;
                fails += (!v.ok) as u64;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "states visited: {seen:?}");
        let rate = fails as f64 / attempts as f64;
        assert!(
            (0.05..0.8).contains(&rate),
            "degraded failure rate {rate} out of range"
        );
    }

    #[test]
    fn offline_always_fails_and_wifi_mostly_succeeds() {
        let mut net = NetworkModel::new(NetemConfig::flaky_cellular(), 64, 11);
        let mut wifi = (0u64, 0u64);
        for t in probe_times() {
            for c in 0..64 {
                let v = net.attempt(c, t);
                match v.state {
                    LinkState::Offline => assert!(!v.ok, "offline can never succeed"),
                    LinkState::Wifi => {
                        wifi.0 += 1;
                        wifi.1 += v.ok as u64;
                    }
                    _ => {}
                }
            }
        }
        assert!(wifi.0 > 100, "need wifi samples, got {}", wifi.0);
        assert!(wifi.1 as f64 / wifi.0 as f64 > 0.97);
    }

    #[test]
    fn full_outage_blacks_out_everyone() {
        let cfg = NetemConfig::flaky_cellular().with_outage(10, SimDuration::from_hours(2), 1.0);
        let mut net = NetworkModel::new(cfg, 16, 5);
        for c in 0..16 {
            let v = net.attempt(c, SimTime::from_hours(11));
            assert!(!v.ok && v.outage, "client {c} should be dark");
            assert!(!net.reachable(c, SimTime::from_hours(11)));
        }
        // Outside the window connectivity returns for most clients.
        let up = (0..16)
            .filter(|&c| net.reachable(c, SimTime::from_hours(13)))
            .count();
        assert!(up > 8, "only {up}/16 recovered");
    }

    #[test]
    fn partial_outage_hits_a_stable_subset() {
        let cfg = NetemConfig::flaky_cellular().with_outage(10, SimDuration::from_hours(2), 0.5);
        let mut net = NetworkModel::new(cfg, 64, 5);
        let dark: Vec<usize> = (0..64)
            .filter(|&c| net.attempt(c, SimTime::from_hours(10)).outage)
            .collect();
        assert!(
            (16..48).contains(&dark.len()),
            "~half should be dark, got {}",
            dark.len()
        );
        // Region assignment is stable: the same clients are dark later in
        // the same window.
        for &c in &dark {
            assert!(net.attempt(c, SimTime::from_hours(11)).outage);
        }
    }

    #[test]
    fn backoff_is_jittered_around_the_raw_delay() {
        let mut net = NetworkModel::new(NetemConfig::flaky_cellular(), 1, 1);
        let retry = net.retry();
        for attempt in 0..4 {
            let raw = retry.raw_delay(attempt).as_millis() as f64;
            for _ in 0..20 {
                let d = net.backoff(0, attempt).as_millis() as f64;
                assert!(
                    d >= raw * (1.0 - RetryPolicy::JITTER / 2.0) - 1.0
                        && d <= raw * (1.0 + RetryPolicy::JITTER / 2.0) + 1.0,
                    "attempt {attempt}: {d} vs raw {raw}"
                );
            }
        }
    }

    #[test]
    fn reachable_consumes_no_attempt_randomness() {
        let mut probed = NetworkModel::new(NetemConfig::flaky_cellular(), 1, 13);
        let mut plain = NetworkModel::new(NetemConfig::flaky_cellular(), 1, 13);
        for k in 0..100u64 {
            let t = SimTime::from_mins(k * 31);
            // Interleave reachability probes on one model only.
            let _ = probed.reachable(0, t);
            let _ = probed.reachable(0, t);
            assert_eq!(probed.attempt(0, t), plain.attempt(0, t));
        }
    }

    #[test]
    fn publish_reports_attempts_and_backoff_depths() {
        let mut net = NetworkModel::new(NetemConfig::degraded(), 8, 21);
        let mut fails = 0u64;
        for t in probe_times() {
            for c in 0..8 {
                fails += (!net.attempt(c, t).ok) as u64;
            }
        }
        net.backoff(0, 0);
        net.backoff(0, 1);
        net.backoff(1, 0);
        let reg = adpf_obs::MetricRegistry::new();
        net.publish(&reg);
        let attempts = 200 * 8;
        assert_eq!(reg.counter_value("netem.attempts"), attempts);
        assert_eq!(reg.counter_value("netem.attempt_failures"), fails);
        let by_state: u64 = [
            "netem.attempts.wifi",
            "netem.attempts.cell_good",
            "netem.attempts.cell_poor",
            "netem.attempts.offline",
        ]
        .iter()
        .map(|n| reg.counter_value(n))
        .sum();
        assert_eq!(by_state, attempts);
        assert_eq!(reg.counter_value("netem.backoffs"), 3);
        let depth = reg.histogram_snapshot("netem.backoff_depth").unwrap();
        assert_eq!(depth.count(), 3);
        assert_eq!(depth.max(), 2); // deepest retry was attempt index 1
        assert_eq!(
            reg.histogram_snapshot("netem.backoff_delay_ms")
                .unwrap()
                .count(),
            3
        );
    }

    #[test]
    fn dwell_times_are_clamped() {
        let mut cfg = NetemConfig::flaky_cellular();
        // Extreme mean: dwells must still land inside the clamp.
        cfg.profiles[0].dwell_mean = SimDuration::from_millis(1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = ClientChannel::sample_dwell(&cfg, &mut rng, LinkState::Wifi);
            assert!(d >= MIN_DWELL && d <= MAX_DWELL);
        }
    }

    #[test]
    fn outage_window_edges_are_half_open() {
        let o = OutageWindow {
            start: SimTime::from_hours(1),
            end: SimTime::from_hours(2),
            affected_fraction: 1.0,
        };
        assert!(o.covers(SimTime::from_hours(1), 0.99));
        assert!(!o.covers(SimTime::from_hours(2), 0.0));
    }
}
