//! Synthetic population generator.
//!
//! Generates per-user app-session traces with the statistical structure the
//! paper's mechanisms exploit and are stressed by:
//!
//! - **Diurnal rhythm**: sessions concentrate in waking hours with lunch and
//!   evening peaks, so slot demand is time-of-day predictable.
//! - **Weekday/weekend modulation**: weekend activity differs by a
//!   configurable factor.
//! - **User heterogeneity**: per-user session rates are lognormal, so a few
//!   heavy users contribute a large share of slots (heavy tail).
//! - **Burstiness**: daily session counts are Poisson around the user's
//!   modulated rate, and session lengths are lognormal, making short-window
//!   slot counts genuinely hard to predict — which is what forces the
//!   overbooking machinery to earn its keep.
//!
//! Every draw comes from a per-user RNG seeded from the population seed and
//! the user id, so traces are reproducible and stable under population-size
//! changes (user 7's sessions do not change when users 8.. are added).

use std::sync::Mutex;

use adpf_desim::{SimDuration, SimTime, WorkQueue};
use adpf_stats::dist::{Discrete, Distribution, LogNormal, Poisson, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{shard_ranges, AppId, Session, Trace, UserId};

/// Users per work item of [`PopulationConfig::generate_parallel`]: one
/// claim and one append to the shared vector per block of consecutive
/// users, instead of one per user, so two workers seldom contend for the
/// vector's lock.
const GEN_BLOCK_USERS: usize = 64;

/// Population-wide sampling model, prebuilt once per generation run and
/// shared read-only across worker threads (all fields are plain data).
struct GenModel {
    horizon: SimTime,
    rate_dist: LogNormal,
    duration_dist: LogNormal,
    app_dist: Zipf,
    jitter: Option<LogNormal>,
}

/// Configuration of a synthetic user population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of users.
    pub num_users: u32,
    /// Trace length in days.
    pub days: u32,
    /// Number of distinct apps in the marketplace.
    pub num_apps: u16,
    /// Zipf exponent of app popularity.
    pub app_zipf_exponent: f64,
    /// Population-mean app sessions per user per weekday.
    pub mean_sessions_per_day: f64,
    /// Coefficient of variation of per-user session rates (heterogeneity).
    pub user_rate_cv: f64,
    /// Mean session duration in seconds.
    pub mean_session_secs: f64,
    /// Coefficient of variation of session durations.
    pub session_cv: f64,
    /// Relative weight of each hour of day for session starts.
    pub hour_weights: [f64; 24],
    /// Multiplier applied to weekend session rates.
    pub weekend_factor: f64,
    /// Coefficient of variation of per-user perturbation of the hour
    /// profile (0 disables personalization).
    pub user_hour_jitter_cv: f64,
    /// Master seed.
    pub seed: u64,
}

impl PopulationConfig {
    /// A waking-hours profile with lunch and evening peaks.
    pub(crate) fn default_hour_weights() -> [f64; 24] {
        [
            0.2, 0.1, 0.05, 0.05, 0.05, 0.1, // 00–05: night.
            0.4, 0.9, 1.3, 1.2, 1.1, 1.4, // 06–11: morning ramp.
            1.8, 1.5, 1.2, 1.2, 1.3, 1.6, // 12–17: lunch peak, afternoon.
            2.0, 2.4, 2.6, 2.2, 1.4, 0.6, // 18–23: evening peak.
        ]
    }

    /// Resolves a CLI preset name: `iphone` ([`Self::iphone_like`]), `wp`
    /// ([`Self::windows_phone_like`]) or `small` ([`Self::small_test`]).
    /// The canonical name set shared by the `simulate` and `tracegen`
    /// binaries.
    pub fn preset(name: &str, seed: u64) -> Result<Self, String> {
        Ok(match name {
            "iphone" => Self::iphone_like(seed),
            "wp" => Self::windows_phone_like(seed),
            "small" => Self::small_test(seed),
            other => return Err(format!("unknown preset `{other}`")),
        })
    }

    /// Population shaped like the paper's iPhone dataset: 1,693 users.
    pub fn iphone_like(seed: u64) -> Self {
        Self {
            num_users: 1_693,
            days: 28,
            num_apps: 300,
            app_zipf_exponent: 1.0,
            mean_sessions_per_day: 11.0,
            user_rate_cv: 1.0,
            mean_session_secs: 110.0,
            session_cv: 1.3,
            hour_weights: Self::default_hour_weights(),
            weekend_factor: 1.15,
            user_hour_jitter_cv: 0.4,
            seed,
        }
    }

    /// Population shaped like the paper's Windows Phone in-lab dataset:
    /// a few dozen users logged over several weeks.
    pub fn windows_phone_like(seed: u64) -> Self {
        Self {
            num_users: 60,
            days: 28,
            num_apps: 120,
            app_zipf_exponent: 1.1,
            mean_sessions_per_day: 14.0,
            user_rate_cv: 0.8,
            mean_session_secs: 130.0,
            session_cv: 1.2,
            hour_weights: Self::default_hour_weights(),
            weekend_factor: 1.2,
            user_hour_jitter_cv: 0.35,
            seed,
        }
    }

    /// A small population for unit tests and examples (fast to generate).
    pub fn small_test(seed: u64) -> Self {
        Self {
            num_users: 40,
            days: 7,
            num_apps: 30,
            app_zipf_exponent: 1.0,
            mean_sessions_per_day: 10.0,
            user_rate_cv: 0.8,
            mean_session_secs: 100.0,
            session_cv: 1.0,
            hour_weights: Self::default_hour_weights(),
            weekend_factor: 1.1,
            user_hour_jitter_cv: 0.3,
            seed,
        }
    }

    /// Generates the trace described by this configuration.
    ///
    /// A zero-user population yields an empty trace over the configured
    /// horizon (the identity of sharded merging), so degenerate sweeps
    /// and property tests don't need a special case.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is statistically degenerate (zero
    /// days, zero apps, or non-positive means) — configurations are
    /// constructed by code, not parsed from input, so this is a
    /// programming error.
    pub fn generate(&self) -> Trace {
        self.generate_parallel(1)
    }

    /// [`PopulationConfig::generate`] fanned across `threads` OS threads.
    ///
    /// Every user's session stream is a pure function of
    /// `(seed, user index)` — the per-user RNG never sees another user's
    /// draws — so users can be generated in any order on any thread.
    /// Workers claim blocks of [`GEN_BLOCK_USERS`] consecutive users,
    /// generate each into a scratch vector of their own and append it to
    /// one shared vector, reserved up front at the expected session count
    /// plus a margin, so the trace is built in one buffer. The result is
    /// **byte-identical** at every thread count: see the comment at the
    /// append. `threads` is a scheduling choice, never a semantic one.
    pub fn generate_parallel(&self, threads: usize) -> Trace {
        assert!(self.days > 0, "trace needs at least one day");
        assert!(self.num_apps > 0, "marketplace needs at least one app");
        let model = self.model();
        let n_blocks = (self.num_users as usize).div_ceil(GEN_BLOCK_USERS);
        let threads = threads.clamp(1, n_blocks.max(1));

        // Workers claim block indices from an atomic queue, so cheap
        // blocks don't serialize behind heavy ones.
        let queue = WorkQueue::new(n_blocks);
        let sessions = Mutex::new(Vec::with_capacity(
            self.session_capacity(0..self.num_users, &model),
        ));
        let work = || {
            let mut block = Vec::new();
            while let Some(b) = queue.claim() {
                let first = b * GEN_BLOCK_USERS;
                let end = (first + GEN_BLOCK_USERS).min(self.num_users as usize);
                block.clear();
                for user in first as u32..end as u32 {
                    self.user_sessions(user, &model, &mut block);
                }
                // Blocks land in whatever order the workers finish them.
                // That cannot move a byte of the sorted trace: sort-key
                // ties `(start, user, app)` only occur within one user,
                // one user's sessions are one contiguous run of one block
                // in emission order, and `Trace::new` breaks ties by
                // position, so tied sessions keep their emission order
                // wherever their block lands.
                sessions
                    .lock()
                    .expect("generator buffer poisoned")
                    .extend_from_slice(&block);
            }
        };
        if threads == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(work);
                }
            });
        }
        let sessions = sessions.into_inner().expect("generator buffer poisoned");
        Trace::new(sessions, self.num_users, model.horizon)
    }

    /// Generates the trace of one shard of an `n_shards`-way balanced
    /// split — the streaming pipeline's unit of work.
    ///
    /// Covers the users of [`shard_ranges`]`(self.num_users, n_shards)[shard]`,
    /// remapped to dense local ids `0..len`, with the *global* horizon.
    /// The result is **byte-identical** to
    /// `self.generate().split_users(n_shards)[shard]` without ever
    /// materializing the full population: sessions are clipped to the
    /// configured horizon, so the global trace horizon equals the model
    /// horizon used here; each user's stream is a pure function of
    /// `(config, user)`; and [`Trace::new`] sorts on `(start, user, app)`
    /// with ties in input order, so ties (always within one user) keep
    /// the same emission order both paths produce. Peak memory is
    /// O(users-per-shard), not O(population).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for the clamped shard count.
    pub fn generate_shard(&self, shard: usize, n_shards: usize) -> Trace {
        let ranges = shard_ranges(self.num_users, n_shards);
        self.generate_user_range(ranges[shard].clone())
    }

    /// Generates the sub-trace of users `[users.start, users.end)`,
    /// remapped to dense local ids `0..len`, with the global horizon.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the population or the configuration is
    /// degenerate (see [`PopulationConfig::generate`]).
    pub fn generate_user_range(&self, users: core::ops::Range<u32>) -> Trace {
        assert!(self.days > 0, "trace needs at least one day");
        assert!(self.num_apps > 0, "marketplace needs at least one app");
        assert!(
            users.start <= users.end && users.end <= self.num_users,
            "user range {users:?} exceeds population {}",
            self.num_users
        );
        let model = self.model();
        let mut sessions = Vec::with_capacity(self.session_capacity(users.clone(), &model));
        for user in users.clone() {
            let before = sessions.len();
            self.user_sessions(user, &model, &mut sessions);
            for s in &mut sessions[before..] {
                s.user = UserId(user - users.start);
            }
        }
        Trace::new(sessions, users.end - users.start, model.horizon)
    }

    /// Builds the population-wide sampling model shared (read-only) by
    /// every user's generator.
    fn model(&self) -> GenModel {
        GenModel {
            horizon: SimTime::from_days(self.days as u64),
            rate_dist: LogNormal::from_mean_cv(self.mean_sessions_per_day, self.user_rate_cv)
                .expect("valid session-rate parameters"),
            duration_dist: LogNormal::from_mean_cv(self.mean_session_secs, self.session_cv)
                .expect("valid session-duration parameters"),
            app_dist: Zipf::new(self.num_apps as usize, self.app_zipf_exponent)
                .expect("valid app Zipf"),
            jitter: if self.user_hour_jitter_cv > 0.0 {
                Some(LogNormal::from_mean_cv(1.0, self.user_hour_jitter_cv).expect("valid jitter"))
            } else {
                None
            },
        }
    }

    /// A capacity for the sessions of `users`: their expected count plus
    /// four standard deviations, so one reservation holds the trace
    /// except on a rare draw, which falls back to the vector's growth.
    ///
    /// Each user's daily count is Poisson around their rate (times the
    /// weekend factor on weekends), drawn first from their stream by
    /// [`user_rate`], so the expected count is exact and the count's
    /// variance equals it. A drawn session is dropped only if clipping to
    /// the horizon leaves nothing of it, which only lowers the count.
    fn session_capacity(&self, users: core::ops::Range<u32>, model: &GenModel) -> usize {
        let weekend_days = (0..self.days as u64)
            .filter(|&day| SimTime::from_days(day).is_weekend())
            .count();
        let day_weight =
            (self.days as usize - weekend_days) as f64 + weekend_days as f64 * self.weekend_factor;
        let mean = users
            .map(|user| user_rate(model, &mut self.user_rng(user)))
            .sum::<f64>()
            * day_weight;
        (mean + 4.0 * mean.sqrt()).ceil() as usize
    }

    /// Generates one user's sessions into `out`, in emission order.
    ///
    /// All randomness comes from the user's own RNG stream, so the output
    /// depends only on `(config, user)` — the invariant parallel
    /// generation rests on.
    fn user_sessions(&self, user: u32, model: &GenModel, out: &mut Vec<Session>) {
        let mut rng = self.user_rng(user);
        let rate = user_rate(model, &mut rng);

        // Personalized diurnal profile.
        let mut weights = self.hour_weights;
        if let Some(j) = &model.jitter {
            for w in &mut weights {
                *w *= j.sample(&mut rng);
            }
        }
        let hour_dist = Discrete::new(&weights).expect("hour weights are valid");

        for day in 0..self.days as u64 {
            let day_start = SimTime::from_days(day);
            let factor = if day_start.is_weekend() {
                self.weekend_factor
            } else {
                1.0
            };
            let n = Poisson::clamped(rate * factor).sample(&mut rng);
            for _ in 0..n {
                let hour = hour_dist.sample(&mut rng) as u64;
                let offset_ms = rng.gen_range(0..adpf_desim::time::MILLIS_PER_HOUR);
                let start =
                    day_start + SimDuration::from_hours(hour) + SimDuration::from_millis(offset_ms);
                let dur_secs = model
                    .duration_dist
                    .sample(&mut rng)
                    .clamp(5.0, 4.0 * 3600.0);
                let mut duration = SimDuration::from_secs_f64(dur_secs);
                // Clip to the horizon so the trace stays bounded.
                if start + duration > model.horizon {
                    duration = model.horizon.saturating_since(start);
                }
                if duration.is_zero() {
                    continue;
                }
                let app = AppId((model.app_dist.sample(&mut rng) - 1) as u16);
                out.push(Session {
                    user: UserId(user),
                    app,
                    start,
                    duration,
                });
            }
        }
    }

    /// Per-user RNG derived from the master seed; stable across population
    /// size changes.
    fn user_rng(&self, user: u32) -> StdRng {
        // SplitMix64-style mixing of (seed, user) into a 64-bit stream id.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(user as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }
}

/// A user's weekday session rate: the first draw of their stream.
fn user_rate(model: &GenModel, rng: &mut StdRng) -> f64 {
    model.rate_dist.sample(rng).clamp(0.2, 250.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = PopulationConfig::small_test(7).generate();
        let b = PopulationConfig::small_test(7).generate();
        assert_eq!(a, b);
        let c = PopulationConfig::small_test(8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(
            PopulationConfig::preset("iphone", 3),
            Ok(PopulationConfig::iphone_like(3))
        );
        assert_eq!(
            PopulationConfig::preset("wp", 3),
            Ok(PopulationConfig::windows_phone_like(3))
        );
        assert_eq!(
            PopulationConfig::preset("small", 3),
            Ok(PopulationConfig::small_test(3))
        );
        assert!(PopulationConfig::preset("android", 3).is_err());
    }

    #[test]
    fn adding_users_preserves_existing_streams() {
        let mut small = PopulationConfig::small_test(3);
        small.num_users = 10;
        let mut big = small.clone();
        big.num_users = 20;
        let ts = small.generate();
        let tb = big.generate();
        for u in 0..10 {
            let a: Vec<_> = ts.sessions_for(UserId(u)).collect();
            let b: Vec<_> = tb.sessions_for(UserId(u)).collect();
            assert_eq!(a, b, "user {u} changed when the population grew");
        }
    }

    #[test]
    fn sessions_respect_horizon() {
        let t = PopulationConfig::small_test(11).generate();
        for s in t.sessions() {
            assert!(s.end() <= t.horizon());
            assert!(!s.duration.is_zero());
        }
    }

    #[test]
    fn mean_rate_is_calibrated() {
        let cfg = PopulationConfig {
            num_users: 300,
            days: 14,
            ..PopulationConfig::small_test(5)
        };
        let t = cfg.generate();
        let per_day = t.sessions().len() as f64 / (300.0 * 14.0);
        // Weekends push the mean slightly above the weekday rate.
        assert!(
            (per_day - cfg.mean_sessions_per_day).abs() < cfg.mean_sessions_per_day * 0.25,
            "sessions/user/day = {per_day}"
        );
    }

    #[test]
    fn diurnal_profile_shows_up() {
        let t = PopulationConfig::small_test(9).generate();
        let mut night = 0u32;
        let mut evening = 0u32;
        for s in t.sessions() {
            match s.start.hour_of_day() {
                1..=4 => night += 1,
                19..=21 => evening += 1,
                _ => {}
            }
        }
        assert!(
            evening > 5 * night,
            "evening {evening} should dwarf night {night}"
        );
    }

    #[test]
    fn app_popularity_is_skewed() {
        let t = PopulationConfig::small_test(13).generate();
        let mut counts = [0u32; 30];
        for s in t.sessions() {
            counts[s.app.0 as usize] += 1;
        }
        let top: u32 = counts[..3].iter().sum();
        let bottom: u32 = counts[27..].iter().sum();
        assert!(top > 5 * bottom.max(1), "top {top} bottom {bottom}");
    }

    #[test]
    fn user_heterogeneity_is_heavy_tailed() {
        let cfg = PopulationConfig {
            num_users: 200,
            ..PopulationConfig::small_test(21)
        };
        let t = cfg.generate();
        let mut per_user = vec![0u32; 200];
        for s in t.sessions() {
            per_user[s.user.0 as usize] += 1;
        }
        per_user.sort_unstable();
        let median = per_user[100] as f64;
        let p95 = per_user[190] as f64;
        assert!(p95 > 2.0 * median, "p95 {p95} median {median}");
    }

    #[test]
    fn zero_users_yield_an_empty_trace() {
        let mut cfg = PopulationConfig::small_test(1);
        cfg.num_users = 0;
        let t = cfg.generate();
        assert_eq!(t.num_users(), 0);
        assert!(t.sessions().is_empty());
        assert_eq!(t.horizon(), SimTime::from_days(7));
    }

    /// A population with the iPhone dataset's statistical shape but sized
    /// for a unit test (the real preset is 1,693 users over 28 days).
    fn iphone_shaped() -> PopulationConfig {
        PopulationConfig {
            num_users: 120,
            days: 7,
            ..PopulationConfig::iphone_like(2013)
        }
    }

    #[test]
    fn parallel_generation_matches_serial_iphone_shape() {
        let cfg = iphone_shaped();
        let serial = cfg.generate();
        for threads in [2, 3, 8] {
            assert_eq!(
                serial,
                cfg.generate_parallel(threads),
                "{threads}-thread generation diverged from serial"
            );
        }
    }

    #[test]
    fn parallel_generation_matches_serial_windows_phone_shape() {
        let mut cfg = PopulationConfig::windows_phone_like(7);
        cfg.days = 7;
        let serial = cfg.generate();
        assert_eq!(serial, cfg.generate_parallel(4));
    }

    #[test]
    fn parallel_generation_matches_serial_for_empty_population() {
        let mut cfg = PopulationConfig::small_test(1);
        cfg.num_users = 0;
        assert_eq!(cfg.generate(), cfg.generate_parallel(4));
    }

    #[test]
    fn oversubscribed_thread_counts_are_clamped_to_the_population() {
        let mut cfg = PopulationConfig::small_test(5);
        cfg.num_users = 3;
        assert_eq!(cfg.generate(), cfg.generate_parallel(64));
    }

    #[test]
    fn block_generation_matches_one_user_at_a_time_across_block_edges() {
        // The reference is the loop block generation replaced: every
        // user's stream pushed in user order onto one growing vector.
        for users in [
            1,
            GEN_BLOCK_USERS as u32 - 1,
            GEN_BLOCK_USERS as u32,
            GEN_BLOCK_USERS as u32 + 1,
            3 * GEN_BLOCK_USERS as u32 + 5,
        ] {
            let cfg = PopulationConfig {
                num_users: users,
                days: 2,
                ..PopulationConfig::iphone_like(31)
            };
            let model = cfg.model();
            let mut sessions = Vec::new();
            for user in 0..users {
                cfg.user_sessions(user, &model, &mut sessions);
            }
            let reference = Trace::new(sessions, users, model.horizon);
            for threads in [1, 2, 3, 8, 64] {
                assert_eq!(
                    cfg.generate_parallel(threads),
                    reference,
                    "{users} users on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn shard_generation_matches_materialize_then_split() {
        // The streaming pipeline's core identity: generating shard i
        // directly is byte-identical to materializing the population and
        // splitting it. Covers uneven splits (7 % 3 != 0) and the
        // n > users clamp.
        let cfg = iphone_shaped();
        let whole = cfg.generate();
        for n in [1usize, 3, 7, 200] {
            let split = whole.split_users(n);
            assert_eq!(split.len(), shard_ranges(cfg.num_users, n).len());
            for (i, expected) in split.iter().enumerate() {
                assert_eq!(
                    &cfg.generate_shard(i, n),
                    expected,
                    "shard {i} of {n} diverged from materialize-then-split"
                );
            }
        }
    }

    #[test]
    fn shard_generation_covers_degenerate_populations() {
        let mut cfg = PopulationConfig::small_test(5);
        cfg.num_users = 0;
        assert_eq!(cfg.generate_shard(0, 4), cfg.generate().split_users(4)[0]);
        cfg.num_users = 1;
        assert_eq!(cfg.generate_shard(0, 8), cfg.generate().split_users(8)[0]);
    }

    #[test]
    fn user_range_generation_is_offset_invariant() {
        // A range's sessions depend only on which users it covers, not on
        // where it sits — the guarantee that lets shards generate lazily.
        let cfg = PopulationConfig::small_test(17);
        let full = cfg.generate_user_range(0..cfg.num_users);
        assert_eq!(full, cfg.generate());
        let tail = cfg.generate_user_range(30..40);
        for s in tail.sessions() {
            let original: Vec<_> = full
                .sessions_for(UserId(s.user.0 + 30))
                .map(|o| (o.app, o.start, o.duration))
                .collect();
            assert!(original.contains(&(s.app, s.start, s.duration)));
        }
        assert_eq!(
            tail.sessions().len(),
            (30..40)
                .map(|u| full.sessions_for(UserId(u)).count())
                .sum::<usize>()
        );
    }
}
