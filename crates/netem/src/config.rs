//! Network-emulation configuration: link states, outages, retry policy.

use adpf_desim::{SimDuration, SimTime};

/// The connectivity regimes a client moves through.
///
/// Values double as indices into [`NetemConfig::profiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Home/office WiFi: fast, reliable, negligible extra latency.
    Wifi = 0,
    /// Healthy cellular: occasional failures, moderate latency.
    CellGood = 1,
    /// Congested or fringe-coverage cellular: high failure rate, long
    /// round trips.
    CellPoor = 2,
    /// No connectivity at all (elevator, airplane mode, dead zone).
    Offline = 3,
}

impl LinkState {
    /// All states, in profile-index order.
    pub(crate) const ALL: [LinkState; 4] = [
        LinkState::Wifi,
        LinkState::CellGood,
        LinkState::CellPoor,
        LinkState::Offline,
    ];

    /// Short label for tables and summaries.
    pub fn label(self) -> &'static str {
        match self {
            LinkState::Wifi => "wifi",
            LinkState::CellGood => "cell-good",
            LinkState::CellPoor => "cell-poor",
            LinkState::Offline => "offline",
        }
    }
}

/// Per-state behavior of the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Mean dwell time in this state (exponential holding time).
    pub dwell_mean: SimDuration,
    /// Extra round-trip stall charged to the radio per attempt made in
    /// this state (successful or not); models degraded-link RTTs and
    /// request timeouts.
    pub latency: SimDuration,
    /// Probability that a single attempt in this state fails.
    /// [`LinkState::Offline`] fails unconditionally regardless of this.
    pub failure_prob: f64,
    /// Relative weight of transitioning *into* this state.
    pub weight: f64,
}

/// A scheduled region-wide blackout: during `[start, end)` every client
/// whose stable region coordinate falls below `affected_fraction` is
/// unreachable, on top of whatever its link state says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Outage start (inclusive).
    pub start: SimTime,
    /// Outage end (exclusive).
    pub end: SimTime,
    /// Fraction of the population affected, in `[0, 1]`.
    pub affected_fraction: f64,
}

impl OutageWindow {
    /// Whether a client at region coordinate `region` is dark at `now`.
    pub(crate) fn covers(&self, now: SimTime, region: f64) -> bool {
        now >= self.start && now < self.end && region < self.affected_fraction
    }
}

/// Client-side retry behavior after a failed sync: capped exponential
/// backoff with multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial failed attempt; `0` disables retries.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on any single backoff delay.
    pub cap: SimDuration,
}

impl RetryPolicy {
    /// Multiplier applied per subsequent retry.
    const FACTOR: f64 = 2.0;
    /// Jitter width as a fraction of the delay: the delay is scaled by a
    /// factor uniform in `[1 - JITTER/2, 1 + JITTER/2)`. Jitter
    /// decorrelates retry storms after a shared outage.
    pub(crate) const JITTER: f64 = 0.5;

    /// No retries: a failed sync waits for the next periodic opportunity.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base: SimDuration::from_mins(5),
            cap: SimDuration::from_mins(30),
        }
    }

    /// The default policy: 3 retries at 5 min × 2^k, capped at 30 min,
    /// 50% jitter.
    pub fn capped_exponential() -> Self {
        Self {
            max_retries: 3,
            ..Self::none()
        }
    }

    /// An aggressive policy: 6 retries starting at 1 min, capped at
    /// 15 min.
    pub fn aggressive() -> Self {
        Self {
            max_retries: 6,
            base: SimDuration::from_mins(1),
            cap: SimDuration::from_mins(15),
        }
    }

    /// The un-jittered delay before retry number `attempt` (0-based):
    /// `min(cap, base * FACTOR^attempt)`.
    pub(crate) fn raw_delay(&self, attempt: u32) -> SimDuration {
        let scaled = self.base.mul_f64(Self::FACTOR.powi(attempt.min(30) as i32));
        if scaled.as_millis() > self.cap.as_millis() {
            self.cap
        } else {
            scaled
        }
    }
}

/// Full network-emulation configuration for one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetemConfig {
    /// Master switch. When `false` the simulator takes the ideal-network
    /// path and draws no netem randomness at all, keeping legacy runs
    /// bit-identical.
    pub enabled: bool,
    /// Short name for report headers (`describe()`).
    pub name: String,
    /// Per-state behavior, indexed by [`LinkState`].
    pub profiles: [LinkProfile; 4],
    /// Scheduled region-wide blackouts.
    pub outages: Vec<OutageWindow>,
    /// Client retry behavior after failed syncs.
    pub retry: RetryPolicy,
}

impl NetemConfig {
    /// Resolves a CLI preset name (`off`, `flaky`, `degraded`,
    /// `blackout`). The canonical name set shared by the `simulate` and
    /// `serve` binaries.
    pub fn parse_preset(name: &str) -> Result<Self, String> {
        Ok(match name {
            "off" => NetemConfig::disabled(),
            "flaky" => NetemConfig::flaky_cellular(),
            "degraded" => NetemConfig::degraded(),
            // A correlated-failure scenario: flaky conditions plus a
            // 6-hour blackout of half the population starting on day 2.
            "blackout" => {
                NetemConfig::flaky_cellular().with_outage(48, SimDuration::from_hours(6), 0.5)
            }
            other => return Err(format!("unknown netem preset `{other}`")),
        })
    }

    /// The ideal network: netem off, every attempt succeeds instantly.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            name: "off".to_string(),
            profiles: Self::flaky_profiles(),
            outages: Vec::new(),
            retry: RetryPolicy::capped_exponential(),
        }
    }

    fn flaky_profiles() -> [LinkProfile; 4] {
        [
            // Wifi
            LinkProfile {
                dwell_mean: SimDuration::from_hours(2),
                latency: SimDuration::from_millis(50),
                failure_prob: 0.005,
                weight: 0.35,
            },
            // CellGood
            LinkProfile {
                dwell_mean: SimDuration::from_hours(1),
                latency: SimDuration::from_millis(300),
                failure_prob: 0.02,
                weight: 0.40,
            },
            // CellPoor
            LinkProfile {
                dwell_mean: SimDuration::from_mins(30),
                latency: SimDuration::from_millis(1_500),
                failure_prob: 0.25,
                weight: 0.20,
            },
            // Offline
            LinkProfile {
                dwell_mean: SimDuration::from_mins(10),
                latency: SimDuration::from_millis(2_000),
                failure_prob: 1.0,
                weight: 0.05,
            },
        ]
    }

    /// A realistic mobile mix: mostly WiFi and healthy cellular, with
    /// short poor-coverage and offline excursions.
    pub fn flaky_cellular() -> Self {
        Self {
            enabled: true,
            name: "flaky".to_string(),
            ..Self::disabled()
        }
    }

    /// A hostile network: poor cellular dominates and offline dwells are
    /// long — the stress end of the degraded-mode sweep.
    pub fn degraded() -> Self {
        let mut cfg = Self::flaky_cellular();
        cfg.name = "degraded".to_string();
        cfg.profiles[LinkState::Wifi as usize].weight = 0.15;
        cfg.profiles[LinkState::CellGood as usize].weight = 0.30;
        cfg.profiles[LinkState::CellPoor as usize].weight = 0.35;
        cfg.profiles[LinkState::Offline as usize] = LinkProfile {
            dwell_mean: SimDuration::from_mins(25),
            latency: SimDuration::from_millis(2_000),
            failure_prob: 1.0,
            weight: 0.20,
        };
        cfg
    }

    /// Adds a scheduled blackout of `duration` starting at hour
    /// `start_h`, hitting `affected_fraction` of the population, and tags
    /// the name. Chainable on any enabled preset.
    pub fn with_outage(
        mut self,
        start_h: u64,
        duration: SimDuration,
        affected_fraction: f64,
    ) -> Self {
        let start = SimTime::from_hours(start_h);
        self.outages.push(OutageWindow {
            start,
            end: start + duration,
            affected_fraction,
        });
        self.name = format!("{}+outage", self.name);
        self
    }

    /// Validates invariants the simulator relies on.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let mut total_weight = 0.0;
        for (state, p) in LinkState::ALL.iter().zip(self.profiles.iter()) {
            if !(p.weight.is_finite() && p.weight >= 0.0) {
                return Err(format!(
                    "netem: {} weight {} invalid",
                    state.label(),
                    p.weight
                ));
            }
            if !(0.0..=1.0).contains(&p.failure_prob) {
                return Err(format!(
                    "netem: {} failure_prob {} outside [0, 1]",
                    state.label(),
                    p.failure_prob
                ));
            }
            if p.weight > 0.0 && p.dwell_mean.is_zero() {
                return Err(format!(
                    "netem: {} dwell_mean must be positive",
                    state.label()
                ));
            }
            total_weight += p.weight;
        }
        if total_weight <= 0.0 {
            return Err("netem: at least one link state needs positive weight".into());
        }
        for o in &self.outages {
            if o.end <= o.start {
                return Err(format!("netem: outage [{}, {}) is empty", o.start, o.end));
            }
            if !(0.0..=1.0).contains(&o.affected_fraction) {
                return Err(format!(
                    "netem: outage fraction {} outside [0, 1]",
                    o.affected_fraction
                ));
            }
        }
        let r = &self.retry;
        if r.max_retries > 0 {
            if r.base.is_zero() {
                return Err("netem: retry base must be positive".into());
            }
            if r.cap.as_millis() < r.base.as_millis() {
                return Err("netem: retry cap must be >= base".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(NetemConfig::disabled().validate(), Ok(()));
        assert_eq!(NetemConfig::flaky_cellular().validate(), Ok(()));
        assert_eq!(NetemConfig::degraded().validate(), Ok(()));
        let mut blackout =
            NetemConfig::flaky_cellular().with_outage(24, SimDuration::from_hours(6), 1.0);
        blackout.retry = RetryPolicy::aggressive();
        assert_eq!(blackout.validate(), Ok(()));
        assert!(blackout.name.contains("outage"));
    }

    #[test]
    fn disabled_config_skips_validation_of_profiles() {
        let mut cfg = NetemConfig::disabled();
        cfg.profiles[0].failure_prob = 7.0;
        assert_eq!(cfg.validate(), Ok(()), "off means off");
        cfg.enabled = true;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_degenerate_knobs() {
        let mut cfg = NetemConfig::flaky_cellular();
        for p in &mut cfg.profiles {
            p.weight = 0.0;
        }
        assert!(cfg.validate().is_err(), "all-zero weights");

        let mut cfg = NetemConfig::flaky_cellular();
        cfg.profiles[1].dwell_mean = SimDuration::ZERO;
        assert!(cfg.validate().is_err(), "zero dwell on a weighted state");

        let mut cfg = NetemConfig::flaky_cellular();
        cfg.retry.cap = SimDuration::from_millis(1);
        assert!(cfg.validate().is_err(), "cap below base");

        let cfg = NetemConfig::flaky_cellular().with_outage(5, SimDuration::ZERO, 0.5);
        assert!(cfg.validate().is_err(), "empty outage window");
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let r = RetryPolicy::capped_exponential();
        assert_eq!(r.raw_delay(0), SimDuration::from_mins(5));
        assert_eq!(r.raw_delay(1), SimDuration::from_mins(10));
        assert_eq!(r.raw_delay(2), SimDuration::from_mins(20));
        assert_eq!(r.raw_delay(3), SimDuration::from_mins(30), "capped");
        assert_eq!(r.raw_delay(30), SimDuration::from_mins(30));
    }

    #[test]
    fn outage_covers_by_time_and_region() {
        let o = OutageWindow {
            start: SimTime::from_hours(10),
            end: SimTime::from_hours(12),
            affected_fraction: 0.5,
        };
        assert!(o.covers(SimTime::from_hours(11), 0.2));
        assert!(!o.covers(SimTime::from_hours(11), 0.7), "unaffected region");
        assert!(!o.covers(SimTime::from_hours(9), 0.2), "before");
        assert!(!o.covers(SimTime::from_hours(12), 0.2), "end exclusive");
    }
}
