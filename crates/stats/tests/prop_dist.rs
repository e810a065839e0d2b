//! Property-based tests for the sampling distributions.

use adpf_stats::dist::{Discrete, Distribution, Exponential, LogNormal, Normal, Poisson, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Positive-support distributions only produce positive values, and
    /// sampling is deterministic per seed.
    #[test]
    fn positive_support_and_determinism(
        mean in 0.1f64..1_000.0,
        cv in 0.05f64..3.0,
        seed in any::<u64>(),
    ) {
        let d = LogNormal::from_mean_cv(mean, cv).unwrap();
        let a = d.sample_n(&mut StdRng::seed_from_u64(seed), 64);
        let b = d.sample_n(&mut StdRng::seed_from_u64(seed), 64);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|&x| x > 0.0 && x.is_finite()));

        let e = Exponential::new(1.0 / mean).unwrap();
        let xs = e.sample_n(&mut StdRng::seed_from_u64(seed), 64);
        prop_assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    /// Zipf ranks stay in range and the pmf sums to one.
    #[test]
    fn zipf_ranks_in_range(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
        let d = Zipf::new(n, s).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let k: usize = d.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
        let total: f64 = (1..=n).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Poisson sampling accepts every non-negative mean.
    #[test]
    fn poisson_samples_every_nonnegative_mean(lambda in 0.0f64..300.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _pois: u64 = Poisson::new(lambda).unwrap().sample(&mut rng);
    }

    /// Discrete distributions only emit categories with positive weight.
    #[test]
    fn discrete_avoids_zero_weight_categories(
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Discrete::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..128 {
            let i: usize = d.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {i}");
        }
    }

    /// Normal samples are finite.
    #[test]
    fn normal_is_finite(mean in -1e6f64..1e6, std_dev in 0.001f64..1e3, seed in any::<u64>()) {
        let d = Normal { mean, std_dev };
        let xs = d.sample_n(&mut StdRng::seed_from_u64(seed), 64);
        prop_assert!(xs.iter().all(|x| x.is_finite()));
    }
}
