//! Closed-form estimates for a replica set.

/// Probability that *no* replica holder displays the ad before the
/// deadline: `prod(1 - p_i)`.
pub fn sla_violation_prob(probs: &[f64]) -> f64 {
    probs
        .iter()
        .map(|p| 1.0 - p.clamp(0.0, 1.0))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

/// Expected duplicate displays of one ad replicated with independent
/// per-holder display probabilities `probs`, assuming no cancellation:
/// `E[displays] - P(at least one display) = sum(p_i) - (1 - prod(1 - p_i))`.
///
/// The runtime cancellation protocol ([`crate::AdBook`]) pushes real
/// duplicates below this bound; the planner uses it as a conservative cost.
pub fn expected_duplicates(probs: &[f64]) -> f64 {
    let sum: f64 = probs.iter().map(|p| p.clamp(0.0, 1.0)).sum();
    let shown = 1.0 - sla_violation_prob(probs);
    (sum - shown).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_replicas_always_violates() {
        assert_eq!(sla_violation_prob(&[]), 1.0);
        assert_eq!(expected_duplicates(&[]), 0.0);
    }

    #[test]
    fn single_certain_replica() {
        assert_eq!(sla_violation_prob(&[1.0]), 0.0);
        assert_eq!(expected_duplicates(&[1.0]), 0.0);
    }

    #[test]
    fn two_replicas_hand_computed() {
        // p = {0.5, 0.5}: violation 0.25; E[dups] = 1.0 - 0.75 = 0.25.
        assert!((sla_violation_prob(&[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((expected_duplicates(&[0.5, 0.5]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probs_are_clamped() {
        assert_eq!(sla_violation_prob(&[2.0]), 0.0);
        assert_eq!(sla_violation_prob(&[-1.0]), 1.0);
    }

    #[test]
    fn estimates_match_monte_carlo() {
        let probs = [0.7, 0.4, 0.2, 0.55];
        let mut rng = StdRng::seed_from_u64(4242);
        let n = 300_000;
        let mut violations = 0u64;
        let mut duplicates = 0u64;
        for _ in 0..n {
            let displays = probs.iter().filter(|&&p| rng.gen::<f64>() < p).count();
            if displays == 0 {
                violations += 1;
            } else {
                duplicates += (displays - 1) as u64;
            }
        }
        let mc_viol = violations as f64 / n as f64;
        let mc_dups = duplicates as f64 / n as f64;
        assert!((mc_viol - sla_violation_prob(&probs)).abs() < 0.005);
        assert!((mc_dups - expected_duplicates(&probs)).abs() < 0.01);
    }

    #[test]
    fn adding_replicas_trades_violation_for_duplicates() {
        let mut probs = vec![0.3];
        let mut last_viol = sla_violation_prob(&probs);
        let mut last_dups = expected_duplicates(&probs);
        for _ in 0..6 {
            probs.push(0.3);
            let viol = sla_violation_prob(&probs);
            let dups = expected_duplicates(&probs);
            assert!(viol < last_viol);
            assert!(dups > last_dups);
            last_viol = viol;
            last_dups = dups;
        }
    }
}
