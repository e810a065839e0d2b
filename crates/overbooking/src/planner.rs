//! Replica-set construction policies.

use crate::availability::ClientAvailability;
use crate::estimator::{expected_duplicates, sla_violation_prob};
use adpf_desim::InlineVec;

/// Inline capacity for per-ad holder lists: replica factors above 8 never
/// occur in practice (config `max_replicas` defaults are small), so plans
/// are allocation-free on the hot path and spill gracefully otherwise.
pub const PLAN_INLINE: usize = 8;

/// A chosen replica set for one pre-sold ad.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Chosen client ids, in placement order.
    pub clients: InlineVec<u32, PLAN_INLINE>,
    /// Per-chosen-client display probabilities (aligned with `clients`).
    pub probs: InlineVec<f64, PLAN_INLINE>,
    /// `P(shown before deadline)` for this set.
    pub success_prob: f64,
    /// Expected duplicate displays without cancellation.
    pub expected_duplicates: f64,
}

impl Plan {
    fn from_choice(chosen: &[(u32, f64)]) -> Self {
        let mut clients = InlineVec::new();
        let mut probs = InlineVec::new();
        for &(c, p) in chosen {
            clients.push(c);
            probs.push(p);
        }
        let success_prob = 1.0 - sla_violation_prob(&probs);
        let expected_duplicates = expected_duplicates(&probs);
        Self {
            clients,
            probs,
            success_prob,
            expected_duplicates,
        }
    }

    /// Replication factor.
    pub fn replicas(&self) -> usize {
        self.clients.len()
    }
}

/// `true` when `a` precedes `b` in selection order: decreasing
/// availability, ties broken by ascending client id. Client ids are unique
/// within a candidate pool, so the order is total over finite
/// probabilities.
#[inline]
fn precedes(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The best positive-probability candidate strictly after `prev` in
/// selection order, or `None` when the pool is exhausted.
///
/// Policies take at most `max_replicas` holders (single digits) from pools
/// of at most `candidate_pool` entries, so repeated `O(n)` partial
/// selection replaces the full sort the hot path used to pay per sold ad —
/// and, because the order is total, picks exactly the same clients in
/// exactly the same sequence.
#[inline]
fn next_in_order(
    candidates: &[ClientAvailability],
    prev: Option<(f64, u32)>,
) -> Option<(f64, u32)> {
    let mut best: Option<(f64, u32)> = None;
    for c in candidates {
        if c.prob <= 0.0 {
            continue;
        }
        let key = (c.prob, c.client);
        if let Some(p) = prev {
            if !precedes(p, key) {
                continue;
            }
        }
        if best.is_none_or(|b| precedes(key, b)) {
            best = Some(key);
        }
    }
    best
}

/// Which replication policy the server uses: the paper's planner and its
/// two ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerKind {
    /// Greedy availability-ordered replication sized to the SLA target
    /// (the paper's planner).
    ///
    /// Taking clients in decreasing availability minimizes the number of
    /// replicas — and therefore the expected duplicates — needed to reach
    /// a given success probability, because the highest-probability holder
    /// contributes the largest single factor to `1 - prod(1 - p_i)`.
    Greedy,
    /// Fixed replication factor, ignoring the SLA target (static
    /// overbooking ablation).
    FixedK(usize),
    /// No replication: every ad lives only on its origin client (the
    /// no-overbooking ablation).
    NoReplication,
}

impl PlannerKind {
    /// Resolves a CLI planner name (`greedy`, `none`, or `fixed-K`). The
    /// canonical name set shared by the `simulate` and `serve` binaries.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "greedy" => Ok(PlannerKind::Greedy),
            "none" => Ok(PlannerKind::NoReplication),
            other => match other.strip_prefix("fixed-").and_then(|k| k.parse().ok()) {
                Some(k) => Ok(PlannerKind::FixedK(k)),
                None => Err(format!("unknown planner `{other}`")),
            },
        }
    }

    /// Benchmark shim; deleted once `benchmark/` rebinds.
    pub fn build(&self) -> Self {
        *self
    }

    /// Stable label for tables.
    pub fn label(&self) -> String {
        match self {
            PlannerKind::Greedy => "greedy".to_string(),
            PlannerKind::FixedK(k) => format!("fixed-{k}"),
            PlannerKind::NoReplication => "none".to_string(),
        }
    }

    /// Chooses a replica set from `candidates` aiming for
    /// `P(shown) >= sla_target`, using at most `max_replicas` holders,
    /// taken in decreasing availability: `Greedy` until the target is met
    /// (always at least one holder when any candidate can display),
    /// `FixedK(k)` exactly `k` where the pool and cap allow, and
    /// `NoReplication` none.
    ///
    /// Candidates may arrive in any order and may include zero-probability
    /// clients; the plan is the same with or without the `prob <= 0.0`
    /// entries. The engine relies on that: it no longer offers
    /// zero-probability candidates at all (its pool build leaves them
    /// out), which is exact only because no policy could have picked one.
    pub fn plan(
        &self,
        candidates: &[ClientAvailability],
        sla_target: f64,
        max_replicas: usize,
    ) -> Plan {
        let (take, target) = match *self {
            PlannerKind::Greedy => (max_replicas, Some(sla_target.clamp(0.0, 1.0))),
            PlannerKind::FixedK(k) => (k.min(max_replicas), None),
            PlannerKind::NoReplication => (0, None),
        };
        let mut chosen: InlineVec<(u32, f64), PLAN_INLINE> = InlineVec::new();
        let mut violation = 1.0;
        let mut prev = None;
        while chosen.len() < take {
            if !chosen.is_empty() && target.is_some_and(|t| 1.0 - violation >= t) {
                break;
            }
            let Some((prob, client)) = next_in_order(candidates, prev) else {
                break;
            };
            chosen.push((client, prob));
            violation *= 1.0 - prob;
            prev = Some((prob, client));
        }
        Plan::from_choice(&chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(probs: &[f64]) -> Vec<ClientAvailability> {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| ClientAvailability {
                client: i as u32,
                prob: p,
            })
            .collect()
    }

    #[test]
    fn greedy_meets_target_with_fewest_replicas() {
        let c = cands(&[0.2, 0.9, 0.5, 0.3]);
        let plan = PlannerKind::Greedy.plan(&c, 0.9, 10);
        // The 0.9 client alone meets the target.
        assert_eq!(plan.clients, vec![1]);
        assert!((plan.success_prob - 0.9).abs() < 1e-12);
        assert_eq!(plan.expected_duplicates, 0.0);
    }

    #[test]
    fn greedy_stacks_replicas_for_high_targets() {
        let c = cands(&[0.5, 0.5, 0.5, 0.5, 0.5]);
        let plan = PlannerKind::Greedy.plan(&c, 0.95, 10);
        // Need 1 - 0.5^k >= 0.95 → k = 5.
        assert_eq!(plan.replicas(), 5);
        assert!(plan.success_prob >= 0.95);
    }

    #[test]
    fn greedy_respects_replica_cap() {
        let c = cands(&[0.1; 20]);
        let plan = PlannerKind::Greedy.plan(&c, 0.999, 4);
        assert_eq!(plan.replicas(), 4);
        assert!(plan.success_prob < 0.999);
    }

    #[test]
    fn greedy_skips_zero_probability_clients() {
        let c = cands(&[0.0, 0.0, 0.6]);
        let plan = PlannerKind::Greedy.plan(&c, 0.99, 10);
        assert_eq!(plan.clients, vec![2]);
    }

    #[test]
    fn greedy_with_no_candidates_is_empty() {
        let plan = PlannerKind::Greedy.plan(&[], 0.9, 5);
        assert_eq!(plan.replicas(), 0);
        assert_eq!(plan.success_prob, 0.0);
        let plan = PlannerKind::Greedy.plan(&cands(&[0.0, 0.0]), 0.9, 5);
        assert_eq!(plan.replicas(), 0);
    }

    #[test]
    fn greedy_always_places_at_least_one_when_possible() {
        // Even with a 0.0 target, a sold ad should be placed somewhere.
        let plan = PlannerKind::Greedy.plan(&cands(&[0.4]), 0.0, 5);
        assert_eq!(plan.replicas(), 1);
    }

    #[test]
    fn fixed_factor_ignores_target() {
        let c = cands(&[0.9, 0.8, 0.7, 0.6]);
        let plan = PlannerKind::FixedK(3).plan(&c, 0.1, 10);
        assert_eq!(plan.clients, vec![0, 1, 2]);
        let plan = PlannerKind::FixedK(3).plan(&c, 0.99999, 2);
        assert_eq!(plan.replicas(), 2, "cap still applies");
    }

    #[test]
    fn single_copy_picks_best() {
        let c = cands(&[0.2, 0.7, 0.5]);
        let plan = PlannerKind::FixedK(1).plan(&c, 0.99, 10);
        assert_eq!(plan.clients, vec![1]);
        assert!((plan.success_prob - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let c = cands(&[0.5, 0.5, 0.5]);
        let a = PlannerKind::Greedy.plan(&c, 0.74, 10);
        let b = PlannerKind::Greedy.plan(&c, 0.74, 10);
        assert_eq!(a, b);
        assert_eq!(a.clients, vec![0, 1]);
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Pseudo-random pool with repeated probabilities to exercise the
        // client-id tie-break; the successive-maxima selection must visit
        // candidates in exactly the order a full sort would.
        let mut probs = Vec::new();
        let mut x: u64 = 0x9e37_79b9;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            probs.push(((x >> 33) % 8) as f64 / 8.0); // includes 0.0 and ties
        }
        let c = cands(&probs);
        let mut sorted: Vec<_> = c.iter().filter(|a| a.prob > 0.0).copied().collect();
        sorted.sort_by(|a, b| {
            b.prob
                .partial_cmp(&a.prob)
                .unwrap()
                .then(a.client.cmp(&b.client))
        });
        let mut prev = None;
        for want in &sorted {
            let got = next_in_order(&c, prev).expect("pool not exhausted");
            assert_eq!(got, (want.prob, want.client));
            prev = Some(got);
        }
        assert_eq!(next_in_order(&c, prev), None);
    }

    #[test]
    fn greedy_duplicates_grow_with_target() {
        let c = cands(&[0.5; 10]);
        let lo = PlannerKind::Greedy.plan(&c, 0.5, 10);
        let hi = PlannerKind::Greedy.plan(&c, 0.99, 10);
        assert!(hi.expected_duplicates > lo.expected_duplicates);
        assert!(hi.success_prob > lo.success_prob);
    }
}
