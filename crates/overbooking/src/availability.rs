//! Per-client display-probability models.
//!
//! Three evaluation paths compute the same math:
//!
//! - the closed-form functions ([`poisson_tail`],
//!   [`display_probability_bursty`]) restart the Poisson summation on
//!   every call — simple, and the reference the tests check against;
//! - the placement kernel ([`BurstyTail`] over [`RunningTail`]) keeps
//!   one client's summation *running*: the engine stores a tail inline
//!   per candidate, pays `exp(-lambda)` once when it scores the client,
//!   and extends the same sum by one multiply-add per extra session each
//!   time the client's queue grows;
//! - the memoizing path ([`PoissonTailSeries`], [`AvailabilityCache`])
//!   keys whole series on the bits of `lambda`. The engine scored through
//!   it until the kernel replaced it; it stays as that kernel's test
//!   reference and because the frozen benchmark's probe binds it, and
//!   goes when the probe is re-pointed (ROADMAP, *One measurement
//!   system*).
//!
//! All three are **bit-identical**: they perform the same floating-point
//! operations in the same order and differ only in what they remember
//! between calls. That property is load-bearing — the simulator's golden
//! determinism suite compares full reports across code paths.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A candidate client for holding a replica of a pre-sold ad.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientAvailability {
    /// Client index (simulator-level id).
    pub client: u32,
    /// Probability the client shows this ad before its deadline.
    pub prob: f64,
}

/// Upper tail of the Poisson distribution: `P(X >= k)` for `X ~
/// Poisson(lambda)`.
///
/// Computed as `1 - sum_{j<k} pmf(j)` with an iteratively built pmf, which
/// is exact and stable for the small `k` (queue depths) used here.
pub fn poisson_tail(k: u32, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if k == 0 {
        return 1.0;
    }
    let mut pmf = (-lambda).exp(); // P(X = 0).
    let mut cdf = pmf;
    for j in 1..k {
        pmf *= lambda / j as f64;
        cdf += pmf;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Display probability under *bursty* demand: slots arrive in sessions.
///
/// Plain Poisson slot arrivals badly overestimate availability when slots
/// cluster — a client with 20 expected slots in a window usually gets them
/// from ~4 sessions, and `P(no session)` is far larger than
/// `P(no slot | independent slots)`. Model sessions as Poisson with mean
/// `dispersion * expected_slots / slots_per_session` (the `dispersion`
/// factor, in `(0, 1]`, absorbs day-level overdispersion: users take whole
/// days off more often than a Poisson process would) and require enough
/// sessions to cover the queue plus this ad.
pub fn display_probability_bursty(
    expected_slots: f64,
    queued_ahead: u32,
    slots_per_session: f64,
    dispersion: f64,
) -> f64 {
    poisson_tail(
        sessions_needed(queued_ahead, slots_per_session),
        session_rate(expected_slots, slots_per_session, dispersion),
    )
}

/// Mean of the Poisson session count behind
/// [`display_probability_bursty`]: `dispersion * expected_slots /
/// slots_per_session`, each input clamped to its domain. Independent of
/// the client's queue, so one value serves every ad of a sync.
#[inline]
fn session_rate(expected_slots: f64, slots_per_session: f64, dispersion: f64) -> f64 {
    dispersion.clamp(0.0, 1.0) * expected_slots.max(0.0) / slots_per_session.max(1.0)
}

/// Sessions a client must produce to work through `queued_ahead` ads and
/// show one more (at least one) — the `k` of
/// [`display_probability_bursty`]'s tail.
#[inline]
fn sessions_needed(queued_ahead: u32, slots_per_session: f64) -> u32 {
    (((queued_ahead as f64 + 1.0) / slots_per_session.max(1.0)).ceil() as u32).max(1)
}

/// The upper Poisson tail at one fixed `lambda`, kept *running*: the
/// last pmf term and the cdf up to it, so a `k` at or past the last one
/// asked extends [`poisson_tail`]'s own summation instead of repeating
/// it.
///
/// Four words, `Copy`, no heap: the placement kernel stores one inline
/// per candidate (inside a [`BurstyTail`]). `new` pays the sum's only `exp`; every further session
/// is `pmf *= lambda / j; cdf += pmf` — the closed form's recurrence in
/// the closed form's order, so [`RunningTail::tail`] is bit-identical to
/// [`poisson_tail`]`(k, lambda)` for every `k` sequence. A `k` below the
/// terms already summed restarts from `exp(-lambda)`, a pure function of
/// the same inputs; the engine never asks for one (within a sync a
/// client's queue only grows), so the restart is a guarantee, not a
/// path that is tuned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTail {
    lambda: f64,
    /// `pmf(terms - 1)`.
    pmf: f64,
    /// `P(X <= terms - 1)`.
    cdf: f64,
    /// Number of pmf terms summed into `cdf`; at least one.
    terms: u32,
}

impl RunningTail {
    /// Starts the sum at its first term, `pmf(0) = exp(-lambda)`.
    #[inline]
    pub fn new(lambda: f64) -> Self {
        // Degenerate rates never read the sum (see `tail`).
        let pmf = if lambda <= 0.0 { 0.0 } else { (-lambda).exp() };
        Self {
            lambda,
            pmf,
            cdf: pmf,
            terms: 1,
        }
    }

    /// `P(X >= k)` for `X ~ Poisson(lambda)`; bit-identical to
    /// [`poisson_tail`]`(k, lambda)`.
    #[inline]
    pub fn tail(&mut self, k: u32) -> f64 {
        if self.lambda <= 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if k == 0 {
            return 1.0;
        }
        if k < self.terms {
            *self = Self::new(self.lambda);
        }
        while self.terms < k {
            self.pmf *= self.lambda / self.terms as f64;
            self.cdf += self.pmf;
            self.terms += 1;
        }
        (1.0 - self.cdf).clamp(0.0, 1.0)
    }
}

/// One client's [`display_probability_bursty`] as a function of its
/// queue depth alone: the session rate is fixed at construction and the
/// Poisson tail over it kept running, so asking again at a deeper queue
/// extends the sum the first answer started. Bit-identical to the closed
/// form at every depth, in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyTail {
    tail: RunningTail,
    slots_per_session: f64,
}

impl BurstyTail {
    /// Fixes the client's rate inputs (see
    /// [`display_probability_bursty`]); pays the one `exp`.
    #[inline]
    pub fn new(expected_slots: f64, slots_per_session: f64, dispersion: f64) -> Self {
        Self {
            tail: RunningTail::new(session_rate(expected_slots, slots_per_session, dispersion)),
            slots_per_session,
        }
    }

    /// [`display_probability_bursty`] with `queued_ahead` ads already
    /// committed to the client.
    #[inline]
    pub fn prob(&mut self, queued_ahead: u32) -> f64 {
        self.tail
            .tail(sessions_needed(queued_ahead, self.slots_per_session))
    }
}

/// Incrementally evaluated upper Poisson tails at one fixed `lambda`.
///
/// [`poisson_tail`] rebuilds `pmf(0..k)` on every call; this type keeps
/// the running pmf and the cdf prefix sums, so `tail(k)` extends the
/// series only past the largest `k` seen so far and answers smaller `k`
/// from the stored prefixes. The recurrence (`pmf *= lambda / j;
/// cdf += pmf`) is the closed form's own loop, executed once — results
/// are bit-identical to [`poisson_tail`] for every `(k, lambda)`.
#[derive(Debug, Clone)]
pub struct PoissonTailSeries {
    lambda: f64,
    /// `pmf(j)` for the last accumulated term `j = cdfs.len() - 1`.
    pmf: f64,
    /// `cdfs[j] = P(X <= j)`, grown lazily.
    cdfs: Vec<f64>,
}

impl PoissonTailSeries {
    /// Starts a series for `lambda` (computes `exp(-lambda)` once).
    pub fn new(lambda: f64) -> Self {
        if lambda <= 0.0 {
            return Self {
                lambda,
                pmf: 0.0,
                cdfs: Vec::new(),
            };
        }
        let pmf = (-lambda).exp();
        Self {
            lambda,
            pmf,
            cdfs: vec![pmf],
        }
    }

    /// `P(X >= k)` for `X ~ Poisson(lambda)`; bit-identical to
    /// [`poisson_tail`]`(k, lambda)`.
    pub fn tail(&mut self, k: u32) -> f64 {
        if self.lambda <= 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if k == 0 {
            return 1.0;
        }
        while self.cdfs.len() < k as usize {
            let j = self.cdfs.len() as f64; // Next pmf term index.
            self.pmf *= self.lambda / j;
            let cdf = self.cdfs.last().expect("non-empty for lambda > 0") + self.pmf;
            self.cdfs.push(cdf);
        }
        (1.0 - self.cdfs[k as usize - 1]).clamp(0.0, 1.0)
    }
}

/// Multiplicative mixer for `f64`-bit cache keys: the default SipHash
/// would cost more than the tail math it guards.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Memoizing evaluator for [`display_probability_bursty`].
///
/// The placement hot loop evaluates availability for dozens of
/// candidates per sale, and sells several ads per sync against the same
/// candidate set — the same session-arrival rate `lambda` recurs many
/// times with only the queue depth varying. The cache keys a
/// [`PoissonTailSeries`] on the *exact bit pattern* of the derived
/// `lambda`, so `exp(-lambda)` is paid once per distinct rate and deeper
/// queue depths extend the shared series.
///
/// Keys are exact (no lossy quantization): a coarser key would return
/// the tail of a *nearby* lambda, silently changing placement decisions
/// and breaking the bit-for-bit determinism contract the golden report
/// suite enforces. Full `f64`-bit keying makes the cache a pure
/// memoization — every returned value is exactly what the closed form
/// would produce.
#[derive(Debug)]
pub struct AvailabilityCache {
    dispersion: f64,
    series: HashMap<u64, PoissonTailSeries, BuildHasherDefault<BitsHasher>>,
    hits: u64,
    misses: u64,
}

impl AvailabilityCache {
    /// Bound on cached distinct lambdas; the map is cleared when it
    /// fills. Reuse is concentrated within a sync (tens of candidates,
    /// a handful of sales), so a modest bound loses nothing.
    const MAX_ENTRIES: usize = 4096;

    /// Creates a cache evaluating at the given day-level `dispersion`
    /// (see [`display_probability_bursty`]).
    pub fn new(dispersion: f64) -> Self {
        Self {
            dispersion,
            series: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Memoized [`display_probability_bursty`] at the cache's
    /// dispersion; bit-identical to the closed form.
    pub fn display_probability_bursty(
        &mut self,
        expected_slots: f64,
        queued_ahead: u32,
        slots_per_session: f64,
    ) -> f64 {
        let l = slots_per_session.max(1.0);
        let lambda_sessions = self.dispersion.clamp(0.0, 1.0) * expected_slots.max(0.0) / l;
        let needed_sessions = (((queued_ahead as f64 + 1.0) / l).ceil() as u32).max(1);
        if lambda_sessions <= 0.0 {
            // needed_sessions >= 1, so the closed form returns 0 here
            // without touching the series.
            return 0.0;
        }
        if self.series.len() >= Self::MAX_ENTRIES {
            self.series.clear();
        }
        match self.series.entry(lambda_sessions.to_bits()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.hits += 1;
                e.get_mut().tail(needed_sessions)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses += 1;
                v.insert(PoissonTailSeries::new(lambda_sessions))
                    .tail(needed_sessions)
            }
        }
    }

    /// `(hits, misses)` counters — the cache's effectiveness witness.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_at_zero_is_one() {
        assert_eq!(poisson_tail(0, 5.0), 1.0);
        assert_eq!(poisson_tail(0, 0.0), 1.0);
    }

    #[test]
    fn tail_with_zero_lambda() {
        assert_eq!(poisson_tail(1, 0.0), 0.0);
        assert_eq!(poisson_tail(5, 0.0), 0.0);
    }

    #[test]
    fn tail_k1_matches_closed_form() {
        for &l in &[0.1f64, 0.5, 1.0, 3.0, 10.0] {
            let expect = 1.0 - (-l).exp();
            assert!((poisson_tail(1, l) - expect).abs() < 1e-12, "lambda {l}");
        }
    }

    #[test]
    fn tail_is_monotone_in_k_and_lambda() {
        for k in 1..10u32 {
            assert!(poisson_tail(k, 4.0) >= poisson_tail(k + 1, 4.0));
        }
        for &pair in &[(0.5, 1.0), (1.0, 2.0), (2.0, 8.0)] {
            assert!(poisson_tail(3, pair.1) >= poisson_tail(3, pair.0));
        }
    }

    #[test]
    fn tail_matches_monte_carlo() {
        use adpf_stats::dist::{Distribution, Poisson};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let lambda = 2.5;
        let d = Poisson::new(lambda).unwrap();
        let n = 200_000;
        for k in [1u32, 2, 4] {
            let hits = (0..n).filter(|_| d.sample(&mut rng) >= k as u64).count();
            let mc = hits as f64 / n as f64;
            let analytic = poisson_tail(k, lambda);
            assert!(
                (mc - analytic).abs() < 0.005,
                "k {k}: mc {mc} vs {analytic}"
            );
        }
    }

    #[test]
    fn bursty_availability_is_below_poisson() {
        // Same expected slots, but clustered into 4-slot sessions: the
        // chance of at least one display drops sharply below that of
        // independent Poisson slots.
        let poisson = poisson_tail(1, 8.0);
        let bursty = display_probability_bursty(8.0, 0, 4.0, 1.0);
        assert!(bursty < poisson, "bursty {bursty} vs poisson {poisson}");
        // Equivalent closed form: P(>=1 session) with lambda = 2.
        assert!((bursty - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn bursty_dispersion_discounts() {
        let full = display_probability_bursty(8.0, 0, 4.0, 1.0);
        let half = display_probability_bursty(8.0, 0, 4.0, 0.5);
        assert!(half < full);
        assert_eq!(display_probability_bursty(8.0, 0, 4.0, 0.0), 0.0);
    }

    #[test]
    fn bursty_queue_needs_more_sessions() {
        // Queue of 4 with 4-slot sessions needs a second session.
        let shallow = display_probability_bursty(8.0, 0, 4.0, 1.0);
        let deep = display_probability_bursty(8.0, 4, 4.0, 1.0);
        assert!(deep < shallow);
        assert!((deep - poisson_tail(2, 2.0)).abs() < 1e-12);
    }
}
