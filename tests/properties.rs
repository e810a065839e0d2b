//! Cross-crate property-based tests (proptest) on the invariants the
//! reproduction relies on.

use adprefetch::auction::{AdId, CampaignId, SoldAd};
use adprefetch::desim::{EventQueue, SimDuration, SimTime};
use adprefetch::energy::{profiles, Radio};
use adprefetch::overbooking::availability::{poisson_tail, ClientAvailability};
use adprefetch::overbooking::{expected_duplicates, sla_violation_prob, AdBook, PlannerKind};
use adprefetch::stats::summary::quantile;
use adprefetch::stats::{Ecdf, Summary};
use proptest::prelude::*;

proptest! {
    /// The ad book settles every sold ad once, whatever order the deadlines
    /// fall in: a sweep hands back and sums its refunds in id order.
    #[test]
    fn the_ad_book_settles_each_ad_once_refunding_in_id_order(
        ads in prop::collection::vec((1u64..48, any::<bool>()), 1..60),
        sweep_h in 1u64..48,
    ) {
        let mut book = AdBook::new();
        for (i, &(deadline_h, shown)) in ads.iter().enumerate() {
            let price = 0.001 + i as f64 * 1.37e-5;
            let sold = SoldAd {
                id: AdId(i as u64),
                campaign: CampaignId(i as u32 % 3),
                price,
                winning_bid: price,
                deadline: SimTime::from_hours(deadline_h),
                sold_at: SimTime::ZERO,
            };
            book.sell(&sold, &[i as u32 % 5]);
            if shown {
                book.report(sold.id, i as u32 % 5, SimTime::from_hours(deadline_h - 1));
            }
        }
        let mut refunds = Vec::new();
        book.expire_due(SimTime::from_hours(sweep_h), &mut refunds);
        prop_assert!(refunds.windows(2).all(|w| w[0].id < w[1].id), "refunds out of id order");
        let summed = refunds.iter().fold(0.0, |sum, r| sum + r.price);
        prop_assert_eq!(book.totals().refunded.to_bits(), summed.to_bits());
        book.expire_due(SimTime::MAX, &mut refunds);
        let t = book.totals();
        prop_assert_eq!(t.billed, ads.iter().filter(|a| a.1).count() as u64);
        prop_assert_eq!(t.billed + t.expired, t.sold);
        prop_assert!(book.is_empty());
    }

    /// The event queue always pops in non-decreasing time order, FIFO
    /// within ties, and never loses or invents events.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated within a tie");
            }
        }
    }

    /// Radio energy accounting: the breakdown components always sum to the
    /// total, counters match the schedule, and energy is non-negative.
    #[test]
    fn radio_accounting_is_conserved(
        gaps in prop::collection::vec(0u64..120_000, 1..60),
        bytes in prop::collection::vec(64u64..200_000, 1..60),
    ) {
        let mut radio = Radio::new(profiles::umts_3g());
        let mut t = SimTime::ZERO;
        let n = gaps.len().min(bytes.len());
        for k in 0..n {
            t += SimDuration::from_millis(gaps[k]);
            radio.transfer(t, bytes[k], 128);
        }
        let e = radio.finish(t + SimDuration::from_hours(1));
        prop_assert_eq!(e.transfers, n as u64);
        prop_assert!(e.promotions >= 1 && e.promotions <= e.transfers);
        prop_assert!(e.promotion_j >= 0.0 && e.transfer_j > 0.0 && e.tail_j > 0.0);
        let total = e.promotion_j + e.transfer_j + e.tail_j;
        prop_assert!((total - e.total_j()).abs() < 1e-9);
    }

    /// Batching the same bytes into one transfer never costs more energy
    /// than spreading them over widely separated transfers.
    #[test]
    fn batching_never_loses(
        count in 2u64..30,
        bytes in 512u64..16_384,
        gap_s in 20u64..600,
    ) {
        let mut spread = Radio::new(profiles::umts_3g());
        for k in 0..count {
            spread.transfer(SimTime::from_secs(k * gap_s), bytes, 64);
        }
        let e_spread = spread.finish(SimTime::from_secs(count * gap_s + 3_600));

        let mut batched = Radio::new(profiles::umts_3g());
        batched.transfer(SimTime::ZERO, bytes * count, 64 * count);
        let e_batched = batched.finish(SimTime::from_secs(count * gap_s + 3_600));

        prop_assert!(e_batched.total_j() <= e_spread.total_j() + 1e-9);
    }

    /// Poisson tails are probabilities, monotone in both arguments.
    #[test]
    fn poisson_tail_is_well_behaved(k in 0u32..30, lambda in 0.0f64..50.0) {
        let p = poisson_tail(k, lambda);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(poisson_tail(k + 1, lambda) <= p + 1e-12);
        prop_assert!(poisson_tail(k, lambda + 1.0) >= p - 1e-12);
    }

    /// The greedy plan only uses offered candidates, never repeats a
    /// client, respects the cap, and reports consistent analytics; the
    /// ablations take exactly what they name (`FixedK(k)` the best
    /// holders the cap and the pool allow, `NoReplication` none).
    #[test]
    fn greedy_plans_are_sound(
        probs in prop::collection::vec(0.0f64..1.0, 0..40),
        target in 0.0f64..1.0,
        cap in 1usize..10,
        k in 0usize..10,
    ) {
        let candidates: Vec<ClientAvailability> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| ClientAvailability { client: i as u32, prob: p })
            .collect();
        let plan = PlannerKind::Greedy.plan(&candidates, target, cap);
        prop_assert!(plan.replicas() <= cap);
        let mut seen = std::collections::HashSet::new();
        for &c in &plan.clients {
            prop_assert!(seen.insert(c), "client {} repeated", c);
            prop_assert!(candidates.iter().any(|x| x.client == c));
        }
        let viol = sla_violation_prob(&plan.probs);
        prop_assert!((plan.success_prob - (1.0 - viol)).abs() < 1e-9);
        prop_assert!((plan.expected_duplicates - expected_duplicates(&plan.probs)).abs() < 1e-9);
        prop_assert!(plan.expected_duplicates >= -1e-12);
        let positive = probs.iter().filter(|&&p| p > 0.0).count();
        let fixed = PlannerKind::FixedK(k).plan(&candidates, target, cap);
        prop_assert_eq!(fixed.replicas(), k.min(cap).min(positive));
        prop_assert_eq!(PlannerKind::NoReplication.plan(&candidates, target, cap).replicas(), 0);
    }

    /// Quantiles are bounded by the extremes and monotone in q.
    #[test]
    fn quantiles_are_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// ECDF evaluation agrees with a direct count, and the summary stays
    /// within bounds.
    #[test]
    fn ecdf_matches_direct_count(
        xs in prop::collection::vec(-100.0f64..100.0, 1..80),
        probe in -120.0f64..120.0,
    ) {
        let e = Ecdf::new(xs.clone());
        let direct = xs.iter().filter(|&&v| v <= probe).count() as f64 / xs.len() as f64;
        prop_assert!((e.cdf(probe) - direct).abs() < 1e-12);
        let s = Summary::from_slice(&xs);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    }
}

/// Greedy stops at the first holder set that meets the target, equality
/// included (two 0.5 holders reach exactly 0.75), and places one holder
/// even when no target is asked of it.
#[test]
fn greedy_stops_at_the_first_set_that_meets_the_target() {
    let candidates: Vec<ClientAvailability> = (0..4)
        .map(|client| ClientAvailability { client, prob: 0.5 })
        .collect();
    let plan = PlannerKind::Greedy.plan(&candidates, 0.75, 8);
    assert_eq!(plan.clients, vec![0, 1]);
    assert_eq!(plan.success_prob, 0.75);
    assert_eq!(
        PlannerKind::Greedy.plan(&candidates, 0.0, 8).clients,
        vec![0]
    );
}
