//! Deterministic sampling distributions and descriptive statistics.
//!
//! This crate is the numerical substrate of the `adprefetch` workspace. It
//! provides:
//!
//! - [`dist`]: random-variate generators (normal, lognormal, exponential,
//!   Zipf, Poisson, and generic discrete distributions) implemented
//!   in-tree so that every sample drawn anywhere in the simulator is
//!   reproducible from a single seed and auditable.
//! - [`summary`]: one-pass descriptive statistics and quantiles.
//! - `ecdf`: empirical cumulative distribution functions.
//! - [`hist`]: hour-of-day profiles.
//! - [`autocorrelation`]: lag autocorrelation (Pearson's r of a series
//!   against itself shifted).
//! - `online`: Welford online means and exponentially weighted means.
//!
//! # Examples
//!
//! ```
//! use adpf_stats::dist::{Distribution, LogNormal};
//! use adpf_stats::summary::Summary;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let d = LogNormal::from_mean_cv(10.0, 1.0).unwrap();
//! let xs: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
//! let s = Summary::from_slice(&xs);
//! assert!((s.mean - 10.0).abs() < 0.5);
//! ```

mod corr;
pub mod dist;
mod ecdf;
pub mod hist;
mod online;
pub mod summary;

pub use corr::autocorrelation;
pub use dist::Distribution;
pub use ecdf::Ecdf;
pub use online::{Ewma, Welford};
pub use summary::Summary;

/// Error type for invalid statistical parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    /// Human-readable description of the violated constraint.
    pub reason: &'static str,
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.reason)
    }
}

impl std::error::Error for ParamError {}
