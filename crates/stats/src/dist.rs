//! Random-variate generators implemented in-tree.
//!
//! Only the uniform source comes from [`rand`]; every transformation to a
//! non-uniform law lives here so that the whole simulation stack depends on
//! one small, documented sampling layer.

use rand::Rng;

use crate::ParamError;

/// A distribution from which values of type `T` can be sampled.
///
/// This mirrors `rand::distributions::Distribution` but is defined locally so
/// the workspace controls every sampling algorithm (and therefore the exact
/// stream of variates produced by a given seed).
pub trait Distribution<T> {
    /// Draws one sample using `rng` as the uniform randomness source.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

    /// Draws `n` samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Normal (Gaussian) distribution sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation; strictly positive.
    pub std_dev: f64,
}

impl Normal {
    /// Samples a standard normal variate.
    pub(crate) fn standard_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        Self::standard_pair(rng).0
    }

    /// Samples a *pair* of independent standard normal variates.
    ///
    /// The Marsaglia polar method produces two variates per accepted
    /// point; bulk samplers that keep the second one halve the cost of
    /// the rejection loop (and its `ln`/`sqrt`) on average.
    pub(crate) fn standard_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        // Marsaglia polar method: draw points uniformly in the unit square
        // until one falls inside the unit circle, then transform.
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                return (u * f, v * f);
            }
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::standard_sample(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal; strictly positive.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the parameters of the underlying normal.
    pub(crate) fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        let valid = sigma.is_finite() && sigma > 0.0 && mu.is_finite();
        if !valid {
            return Err(ParamError {
                reason: "LogNormal requires finite mu and sigma > 0",
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Creates a log-normal with the given arithmetic mean and coefficient of
    /// variation (`std / mean`).
    ///
    /// This is the natural way to specify workload knobs ("mean session
    /// length 80 s, CV 1.2") without solving for `mu`/`sigma` by hand.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, ParamError> {
        let valid = mean.is_finite() && mean > 0.0 && cv.is_finite() && cv > 0.0;
        if !valid {
            return Err(ParamError {
                reason: "LogNormal::from_mean_cv requires mean > 0 and cv > 0",
            });
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }

    /// Arithmetic mean of the distribution.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl LogNormal {
    /// Samples one value, banking the polar method's second normal
    /// variate in `spare` for the next call.
    ///
    /// The sampled distribution is exactly that of
    /// [`Distribution::sample`]; only the RNG consumption pattern
    /// differs (half the rejection loops on average). Callers drawing
    /// many values per stream — an ad exchange sampling dozens of bids
    /// per auction — thread one `spare` slot through all draws.
    pub fn sample_paired<R: Rng + ?Sized>(&self, rng: &mut R, spare: &mut Option<f64>) -> f64 {
        self.sample_log_paired(rng, spare).exp()
    }

    /// Samples the natural logarithm of one value: exactly the argument
    /// [`LogNormal::sample_paired`] passes to `exp`, with the same RNG
    /// and `spare` consumption.
    ///
    /// `exp` is monotone, so a caller that only *ranks* samples — an
    /// auction looking for the two highest bids — can compare in log
    /// space and exponentiate just the few values it reports.
    #[inline]
    pub fn sample_log_paired<R: Rng + ?Sized>(&self, rng: &mut R, spare: &mut Option<f64>) -> f64 {
        let z = match spare.take() {
            Some(z) => z,
            None => {
                let (a, b) = Normal::standard_pair(rng);
                *spare = Some(b);
                a
            }
        };
        self.mu + self.sigma * z
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter; strictly positive.
    pub rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError {
                reason: "Exponential requires rate > 0",
            });
        }
        Ok(Self { rate })
    }
}

impl Distribution<f64> for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: -ln(1 - U) / lambda; `gen` draws from [0, 1).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampling uses a precomputed cumulative table and binary search, which is
/// exact and fast for the rank counts used in this workspace (hundreds of
/// apps, thousands of users).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError {
                reason: "Zipf requires n >= 1",
            });
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(ParamError {
                reason: "Zipf requires finite s >= 0",
            });
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against floating-point drift so the final bucket always
        // covers u = 1 - epsilon.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(Self { cumulative })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` when the distribution has no ranks (never constructed).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.cumulative.len() {
            return 0.0;
        }
        let hi = self.cumulative[k - 1];
        let lo = if k >= 2 { self.cumulative[k - 2] } else { 0.0 };
        hi - lo
    }
}

impl Distribution<usize> for Zipf {
    /// Samples a 1-based rank.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative table is finite"))
        {
            // On an exact boundary hit the draw belongs to the next rank,
            // which matches the half-open bucket convention used below.
            Ok(i) | Err(i) => (i + 1).min(self.cumulative.len()),
        }
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's product method for small means and a normal approximation
/// with continuity correction for large means, which keeps sampling O(1)
/// across the full range used by the workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean (and variance); non-negative.
    pub lambda: f64,
}

impl Poisson {
    /// Mean above which the normal approximation is used.
    const NORMAL_APPROX_THRESHOLD: f64 = 64.0;

    /// Creates a Poisson distribution with the given mean.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(ParamError {
                reason: "Poisson requires finite lambda >= 0",
            });
        }
        Ok(Self { lambda })
    }

    /// Creates a Poisson distribution, clamping an invalid mean (NaN,
    /// infinite, or negative) to 0 instead of failing.
    ///
    /// Workload generators compute `lambda` from sampled per-user rates
    /// scaled by calendar factors; a pathological combination should
    /// degrade to "no arrivals", not panic mid-generation. Debug builds
    /// still assert so the bad parameter is caught in tests.
    pub fn clamped(lambda: f64) -> Self {
        debug_assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson::clamped given invalid lambda {lambda}"
        );
        let lambda = if lambda.is_finite() && lambda >= 0.0 {
            lambda
        } else {
            0.0
        };
        Self { lambda }
    }
}

impl Distribution<u64> for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < Self::NORMAL_APPROX_THRESHOLD {
            // Knuth: count uniform draws until their product drops below
            // exp(-lambda).
            let limit = (-self.lambda).exp();
            let mut product: f64 = rng.gen();
            let mut count = 0u64;
            while product > limit {
                product *= rng.gen::<f64>();
                count += 1;
            }
            count
        } else {
            let x = self.lambda + self.lambda.sqrt() * Normal::standard_sample(rng);
            x.round().max(0.0) as u64
        }
    }
}

/// Discrete distribution over indices `0..weights.len()` with arbitrary
/// non-negative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Creates a discrete distribution proportional to `weights`.
    ///
    /// Returns an error if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError {
                reason: "Discrete requires at least one weight",
            });
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if !(w.is_finite() && w >= 0.0) {
                return Err(ParamError {
                    reason: "Discrete requires finite weights >= 0",
                });
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(ParamError {
                reason: "Discrete requires a positive total weight",
            });
        }
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(Self { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` when the distribution has no categories.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability mass of category `i` (0-based).
    pub fn pmf(&self, i: usize) -> f64 {
        if i >= self.cumulative.len() {
            return 0.0;
        }
        let hi = self.cumulative[i];
        let lo = if i >= 1 { self.cumulative[i - 1] } else { 0.0 };
        hi - lo
    }
}

impl Distribution<usize> for Discrete {
    /// Samples a 0-based category index.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative table is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xad5_beef)
    }

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn normal_matches_moments() {
        let d = Normal {
            mean: 5.0,
            std_dev: 2.0,
        };
        let mut r = rng();
        let xs = d.sample_n(&mut r, 50_000);
        let m = mean_of(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_from_mean_cv_hits_mean() {
        let d = LogNormal::from_mean_cv(42.0, 1.5).unwrap();
        assert!((d.mean() - 42.0).abs() < 1e-9);
        let mut r = rng();
        let xs = d.sample_n(&mut r, 200_000);
        let m = mean_of(&xs);
        assert!((m - 42.0).abs() < 1.5, "empirical mean {m}");
    }

    #[test]
    fn lognormal_median_below_mean() {
        let d = LogNormal::from_mean_cv(10.0, 2.0).unwrap();
        assert!(d.mu.exp() < d.mean(), "median exp(mu) below the mean");
    }

    #[test]
    fn lognormal_log_sampler_is_the_paired_sampler_before_exp() {
        let d = LogNormal::from_mean_cv(0.0015, 0.6).unwrap();
        let (mut ra, mut rb) = (rng(), rng());
        let (mut sa, mut sb) = (None, None);
        for _ in 0..1_001 {
            let v = d.sample_paired(&mut ra, &mut sa);
            let x = d.sample_log_paired(&mut rb, &mut sb);
            assert_eq!(v.to_bits(), x.exp().to_bits());
            assert_eq!(sa.map(f64::to_bits), sb.map(f64::to_bits));
        }
        assert_eq!(ra, rb, "both samplers consume the same draws");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(1.0 / 3.0).unwrap();
        let mut r = rng();
        let xs = d.sample_n(&mut r, 100_000);
        assert!((mean_of(&xs) - 3.0).abs() < 0.05);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.0).unwrap();
        let mut r = rng();
        let mut counts = vec![0u32; 101];
        for _ in 0..50_000 {
            let k: usize = d.sample(&mut r);
            assert!((1..=100).contains(&k));
            counts[k] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // PMF of rank 1 under Zipf(100, 1) is 1 / H_100 ~ 0.1928.
        let p1 = counts[1] as f64 / 50_000.0;
        assert!((p1 - d.pmf(1)).abs() < 0.01, "p1 {p1} vs {}", d.pmf(1));
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let d = Zipf::new(37, 0.8).unwrap();
        let total: f64 = (1..=37).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(38), 0.0);
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut r = rng();
        for &lambda in &[0.5, 4.0, 20.0, 200.0] {
            let d = Poisson::new(lambda).unwrap();
            let xs: Vec<u64> = (0..40_000).map(|_| d.sample(&mut r)).collect();
            let m = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
            assert!(
                (m - lambda).abs() < 3.0 * (lambda / 40_000.0).sqrt() + 0.5,
                "lambda {lambda} empirical {m}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let d = Poisson::new(0.0).unwrap();
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0);
    }

    #[test]
    fn poisson_clamped_passes_valid_and_floors_invalid() {
        assert_eq!(Poisson::clamped(3.5).lambda, 3.5);
        assert_eq!(Poisson::clamped(0.0).lambda, 0.0);
        // Release builds clamp rather than panic; debug builds assert, so
        // only exercise the invalid inputs when debug assertions are off.
        if !cfg!(debug_assertions) {
            let mut r = rng();
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                let d = Poisson::clamped(bad);
                assert_eq!(d.lambda, 0.0);
                assert_eq!(d.sample(&mut r), 0);
            }
        }
    }

    #[test]
    fn discrete_matches_weights() {
        let d = Discrete::new(&[1.0, 3.0, 6.0]).unwrap();
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..60_000 {
            counts[d.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / 60_000.0 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 60_000.0 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / 60_000.0 - 0.6).abs() < 0.01);
        assert!((d.pmf(2) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn discrete_rejects_degenerate_weights() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[1.0, -1.0]).is_err());
        assert!(Discrete::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn zipf_zero_ranks_rejected() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = LogNormal::from_mean_cv(5.0, 0.7).unwrap();
        let a = d.sample_n(&mut StdRng::seed_from_u64(9), 32);
        let b = d.sample_n(&mut StdRng::seed_from_u64(9), 32);
        assert_eq!(a, b);
    }
}
