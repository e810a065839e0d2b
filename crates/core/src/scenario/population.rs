//! Scenario-shaped trace generation.
//!
//! [`ScenarioPopulation`] wraps a base [`PopulationConfig`] and applies
//! the trace-side scenario layers — per-class session shapes, churn
//! clipping, burst injection — as pure per-user transforms keyed on the
//! *global* user id. Because every transform depends only on
//! `(base config, spec, global user)`, generating a shard directly is
//! byte-identical to materializing the whole scenario population and
//! splitting it, which is what lets scenarios ride the bounded-memory
//! streaming pipeline unchanged.

use adpf_desim::{SimDuration, SimTime};
use adpf_stats::dist::{Distribution, Poisson};
use adpf_traces::{shard_ranges, AppId, PopulationConfig, Session, Trace, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    class_index, region_index, unit_coord, BurstSpec, CellCapacity, ScenarioSpec, ARRIVAL_SALT,
    BURST_SALT, DEPART_SALT,
};

/// Per-user lifecycle derived from the spec's stable coordinates: the
/// session-duration scale of the user's class and the `[arrive, depart)`
/// presence window churn leaves them.
struct UserLife {
    scale: f64,
    arrive: SimTime,
    depart: SimTime,
}

impl UserLife {
    /// What is left of a session of `duration` starting at `start` once
    /// cut to the presence window (which ends by the horizon), or `None`
    /// when nothing is.
    fn clip(&self, start: SimTime, duration: SimDuration) -> Option<SimDuration> {
        if start < self.arrive || start >= self.depart {
            return None;
        }
        let duration = duration.min(self.depart.saturating_since(start));
        (!duration.is_zero()).then_some(duration)
    }
}

/// A [`PopulationConfig`] with a [`ScenarioSpec`] layered on top,
/// mirroring the base generation surface so it plugs into both the
/// materialized and the streaming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPopulation {
    /// The base synthetic population.
    pub base: PopulationConfig,
    /// The scenario layered on top.
    pub spec: ScenarioSpec,
}

impl ScenarioPopulation {
    /// Wraps `base` with `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid — specs come from presets or code,
    /// so a bad one is a programming error.
    pub fn new(base: PopulationConfig, spec: ScenarioSpec) -> Self {
        if let Err(reason) = spec.validate() {
            panic!("invalid ScenarioSpec: {reason}");
        }
        Self { base, spec }
    }

    /// Population size.
    pub fn num_users(&self) -> u32 {
        self.base.num_users
    }

    /// Trace length in days.
    pub fn days(&self) -> u32 {
        self.base.days
    }

    /// The class/region assignment seed both sides key on: the base
    /// population seed.
    pub fn assign_seed(&self) -> u64 {
        self.base.seed
    }

    /// Installs the engine-side half of the scenario on `config` with
    /// the matching assignment seed (see [`ScenarioSpec::apply_to`]).
    pub fn apply_to(&self, config: &mut crate::SystemConfig) {
        self.spec.apply_to(config, self.assign_seed());
    }

    /// Generates the full scenario-shaped trace.
    pub fn generate(&self) -> Trace {
        self.generate_parallel(1)
    }

    /// [`ScenarioPopulation::generate`] with base generation fanned
    /// across `threads` (the transform itself is one cheap linear pass).
    /// Byte-identical at every thread count.
    pub fn generate_parallel(&self, threads: usize) -> Trace {
        self.transform(self.base.generate_parallel(threads), 0)
    }

    /// Generates the scenario-shaped sub-trace of shard `shard` of an
    /// `n_shards`-way balanced split — byte-identical to
    /// `self.generate().split_users(n_shards)[shard]`, without
    /// materializing the population.
    pub fn generate_shard(&self, shard: usize, n_shards: usize) -> Trace {
        let users = shard_ranges(self.base.num_users, n_shards)[shard].clone();
        let offset = users.start;
        self.transform(self.base.generate_user_range(users), offset)
    }

    /// Applies the trace-side scenario layers to a base (sub-)trace whose
    /// local user `u` is global user `offset + u`.
    ///
    /// Order matters and is fixed: scale sessions by class shape, clip
    /// them to the user's churn window, then inject burst sessions
    /// (burst draws come from a dedicated per-user RNG stream, so they
    /// never perturb the base draws). Everything is clipped to the
    /// *nominal* horizon (`days`), never the trace's extended one, so
    /// every shard reports the same horizon and time-driven schedules
    /// stay aligned.
    fn transform(&self, base: Trace, offset: u32) -> Trace {
        let n = base.num_users();
        let horizon = SimTime::from_days(self.base.days as u64);
        let seed = self.assign_seed();
        let classes = &self.spec.classes;
        let churn = self.spec.churn;
        let lives: Vec<UserLife> = (0..n)
            .map(|local| {
                let g = (offset + local) as u64;
                // A retained user's departure edge is SimTime::ZERO;
                // "no departure" means the horizon, so the presence
                // window reads uniformly as [arrive, depart).
                let depart = match self.churn_edge(g, DEPART_SALT, churn.departure_fraction) {
                    SimTime::ZERO => horizon,
                    edge => edge.min(horizon),
                };
                UserLife {
                    scale: classes[class_index(seed, g, classes)].session_scale,
                    arrive: self.churn_edge(g, ARRIVAL_SALT, churn.arrival_fraction),
                    depart,
                }
            })
            .collect();

        // Scaled and clipped in place, in the base trace's order, so the
        // trace is held once.
        let mut sessions = base.into_sessions();
        sessions.retain_mut(|s| {
            let life = &lives[s.user().0 as usize];
            life.clip(s.start(), s.duration().mul_f64(life.scale))
                .map(|duration| {
                    s.set_duration(duration)
                        .expect("a clipped duration ends by the horizon")
                })
                .is_some()
        });

        if let Some(b) = &self.spec.burst {
            let regions = CellCapacity::REGIONS;
            let affected = BurstSpec::affected_regions(regions);
            let window_ms = BurstSpec::DURATION.as_millis();
            // A bursting user's stream and its first draw, the number of
            // burst sessions.
            let burst = |local: u32| {
                let g = (offset + local) as u64;
                (region_index(seed, g, regions) < affected).then(|| {
                    let mut rng = burst_stream(seed, g);
                    let extra = Poisson::clamped(b.intensity).sample(&mut rng);
                    (rng, extra)
                })
            };
            // One reservation for every burst session, so the appends
            // never double the vector.
            let bursts: u64 = (0..n).filter_map(burst).map(|(_, extra)| extra).sum();
            sessions.reserve_exact(bursts as usize);
            for local in 0..n {
                let Some((mut rng, extra)) = burst(local) else {
                    continue;
                };
                let life = &lives[local as usize];
                for _ in 0..extra {
                    let start =
                        BurstSpec::START + SimDuration::from_millis(rng.gen_range(0..window_ms));
                    let duration = SimDuration::from_secs(
                        rng.gen_range(BurstSpec::MIN_SECS..=BurstSpec::MAX_SECS),
                    );
                    // Burst sessions respect churn and the horizon like
                    // any other session.
                    if let Some(duration) = life.clip(start, duration) {
                        sessions.push(
                            Session::new(UserId(local), AppId(BurstSpec::APP), start, duration)
                                .expect("a clipped burst session ends by the horizon"),
                        );
                    }
                }
            }
        }

        Trace::new(sessions, n, horizon)
    }

    /// The churn edge (arrival or departure time) of global user `g`:
    /// [`SimTime::ZERO`] when the user is not churned under `fraction`,
    /// otherwise uniform over the horizon (the coordinate's position
    /// within the churned band recycled as the time coordinate).
    fn churn_edge(&self, g: u64, salt: u64, fraction: f64) -> SimTime {
        if fraction <= 0.0 {
            return SimTime::ZERO;
        }
        let coord = unit_coord(self.assign_seed(), salt, g);
        if coord >= fraction {
            return SimTime::ZERO;
        }
        let horizon_ms = SimTime::from_days(self.base.days as u64).as_millis() as f64;
        SimTime::from_millis((horizon_ms * (coord / fraction)) as u64)
    }
}

/// The dedicated burst RNG stream of global user `g`: SplitMix64-style
/// mixing of `(seed ^ BURST_SALT, g)`, mirroring the base generator's
/// per-user stream derivation so burst draws are pure per-user functions
/// decoupled from the base session draws.
fn burst_stream(seed: u64, g: u64) -> StdRng {
    let mut z =
        (seed ^ BURST_SALT).wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(g.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_pop(seed: u64) -> ScenarioPopulation {
        ScenarioPopulation::new(PopulationConfig::small_test(seed), ScenarioSpec::mixed())
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(mixed_pop(7).generate(), mixed_pop(7).generate());
        assert_ne!(mixed_pop(7).generate(), mixed_pop(8).generate());
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let pop = mixed_pop(11);
        let serial = pop.generate();
        for threads in [2, 8] {
            assert_eq!(serial, pop.generate_parallel(threads));
        }
    }

    #[test]
    fn shard_generation_matches_materialize_then_split() {
        for spec in [
            ScenarioSpec::mixed(),
            ScenarioSpec::churn(),
            ScenarioSpec::flash_crowd(),
        ] {
            let name = spec.name.clone();
            let pop = ScenarioPopulation::new(PopulationConfig::small_test(5), spec);
            let whole = pop.generate();
            for n in [1usize, 3, 8] {
                let split = whole.split_users(n);
                for (i, expected) in split.iter().enumerate() {
                    assert_eq!(
                        &pop.generate_shard(i, n),
                        expected,
                        "scenario `{name}` shard {i}/{n} diverged from materialize-then-split"
                    );
                }
            }
        }
    }

    #[test]
    fn horizon_stays_nominal() {
        // Session scaling must never leak past the nominal horizon (the
        // shard-alignment invariant).
        let pop =
            ScenarioPopulation::new(PopulationConfig::small_test(3), ScenarioSpec::flash_crowd());
        let t = pop.generate();
        assert_eq!(t.horizon(), SimTime::from_days(7));
        for s in t.sessions() {
            assert!(s.end() <= t.horizon());
            assert!(!s.duration().is_zero());
        }
    }

    #[test]
    fn churn_carves_presence_windows() {
        let pop = ScenarioPopulation::new(PopulationConfig::small_test(13), ScenarioSpec::churn());
        let base = pop.base.generate();
        let t = pop.generate();
        assert!(
            t.sessions().len() < base.sessions().len(),
            "churn must drop sessions"
        );
        // At least one user arrives mid-trace: their first session is
        // strictly later than in the base trace.
        let mut late_arrivals = 0;
        for u in 0..pop.num_users() {
            let first = t.sessions_for(UserId(u)).map(|s| s.start()).min();
            let base_first = base.sessions_for(UserId(u)).map(|s| s.start()).min();
            if let (Some(f), Some(bf)) = (first, base_first) {
                if f > bf {
                    late_arrivals += 1;
                }
            }
        }
        assert!(late_arrivals > 0, "expected mid-trace arrivals");
    }

    #[test]
    fn burst_concentrates_sessions_in_window() {
        let spec = ScenarioSpec::flash_crowd();
        let pop = ScenarioPopulation::new(PopulationConfig::small_test(21), spec);
        let (start, end) = (BurstSpec::START, BurstSpec::START + BurstSpec::DURATION);
        let base = pop.base.generate();
        let t = pop.generate();
        let in_window = |tr: &Trace| {
            tr.sessions()
                .iter()
                .filter(|s| s.start() >= start && s.start() < end)
                .count()
        };
        assert!(
            in_window(&t) > in_window(&base),
            "burst must add sessions in its window ({} vs {})",
            in_window(&t),
            in_window(&base)
        );
        // Injected sessions are all the hot app.
        let hot = t
            .sessions()
            .iter()
            .filter(|s| s.app() == AppId(BurstSpec::APP) && s.start() >= start && s.start() < end)
            .count();
        assert!(hot > 0);
    }

    #[test]
    fn scale_stretches_wifi_heavy_sessions() {
        // WiFi-heavy users (scale 1.25) should average longer sessions
        // than budget users (scale 0.75) under the same base shape.
        let pop = mixed_pop(17);
        let t = pop.generate();
        let classes = &pop.spec.classes;
        let mut sums = [0.0f64; 3];
        let mut counts = [0u32; 3];
        for s in t.sessions() {
            let c = class_index(pop.assign_seed(), s.user().0 as u64, classes);
            sums[c] += s.duration().as_millis() as f64;
            counts[c] += 1;
        }
        let mean = |i: usize| sums[i] / counts[i].max(1) as f64;
        assert!(
            mean(0) > mean(2),
            "wifi-heavy mean {} must exceed budget mean {}",
            mean(0),
            mean(2)
        );
    }

    #[test]
    fn zero_intensity_burst_is_a_noop() {
        let mut spec = ScenarioSpec::flash_crowd();
        spec.burst = Some(BurstSpec { intensity: 0.0 });
        spec.netem = None;
        let with = ScenarioPopulation::new(PopulationConfig::small_test(5), spec.clone());
        spec.burst = None;
        let without = ScenarioPopulation::new(PopulationConfig::small_test(5), spec);
        assert_eq!(with.generate(), without.generate());
    }
}
