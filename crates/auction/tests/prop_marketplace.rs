//! Adversarial property suite for the marketplace-enabled exchange:
//! clearing-price bounds under floors and both pricing rules, the
//! second-price <= first-price dominance, budget non-negativity,
//! exact debit/refund round-trips, and pacing-multiplier clamps.

use adpf_auction::{
    BidModel, Campaign, CampaignCatalog, CampaignId, Exchange, MarketplaceConfig, PacingController,
    PriceFloors, PricingRule, SlotOffer,
};
use adpf_desim::SimTime;
use proptest::prelude::*;

fn slot(advance: bool) -> SlotOffer {
    if advance {
        SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(4))
    } else {
        SlotOffer::realtime(SimTime::ZERO, None)
    }
}

proptest! {
    /// The clearing price always lands in `[kind floor, winning bid]`,
    /// whatever the pricing rule, slot kind, and floor level — the
    /// advance discount can never undercut a configured floor, and no
    /// rule ever charges the winner more than it bid.
    #[test]
    fn clearing_price_respects_floor_and_winning_bid(
        seed in any::<u64>(),
        campaigns in 1u32..30,
        floor in 0.0f64..0.01,
        first_price in any::<bool>(),
        advance in any::<bool>(),
    ) {
        let mut ex = Exchange::new(
            CampaignCatalog::synthetic(campaigns, seed).into_campaigns(),
            seed,
        );
        ex.set_floors(PriceFloors::uniform(floor));
        ex.set_pricing(if first_price {
            PricingRule::FirstPrice
        } else {
            PricingRule::SecondPrice
        });
        let offer = slot(advance);
        for _ in 0..120 {
            if let Some(sold) = ex.run_auction(&offer) {
                prop_assert!(
                    sold.price >= floor - 1e-12,
                    "price {} below floor {floor}",
                    sold.price
                );
                prop_assert!(
                    sold.price <= sold.winning_bid + 1e-12,
                    "price {} above winning bid {}",
                    sold.price,
                    sold.winning_bid
                );
            }
        }
    }

    /// On identical bid sets (same seed, budgets too deep to diverge),
    /// second-price auctions pick the same winner as first-price ones
    /// and never charge more.
    #[test]
    fn second_price_never_exceeds_first_price(
        seed in any::<u64>(),
        campaigns in 1u32..30,
        advance in any::<bool>(),
    ) {
        let deep = |seed: u64| -> Vec<Campaign> {
            let mut cs = CampaignCatalog::synthetic(campaigns, seed).into_campaigns();
            // Budgets deep enough that differing spend trajectories can
            // never flip an affordability check between the two runs.
            for c in &mut cs {
                c.budget = 1e9;
            }
            cs
        };
        let mut first = Exchange::new(deep(seed), seed);
        first.set_pricing(PricingRule::FirstPrice);
        let mut second = Exchange::new(deep(seed), seed);
        second.set_pricing(PricingRule::SecondPrice);
        let offer = slot(advance);
        for _ in 0..200 {
            let a = first.run_auction(&offer);
            let b = second.run_auction(&offer);
            prop_assert_eq!(a.is_some(), b.is_some(), "identical streams must agree on fills");
            if let (Some(fp), Some(sp)) = (a, b) {
                prop_assert_eq!(fp.campaign, sp.campaign, "winner must not depend on pricing");
                prop_assert!(
                    sp.price <= fp.price + 1e-12,
                    "second price {} above first price {}",
                    sp.price,
                    fp.price
                );
            }
        }
    }

    /// Campaign budgets never go negative under arbitrary interleavings
    /// of paced auctions (floors, multipliers, throttles) and refunds.
    #[test]
    fn budgets_never_negative(
        seed in any::<u64>(),
        campaigns in 1u32..25,
        floor in 0.0f64..0.005,
        refund_mask in any::<u64>(),
    ) {
        let mut cs = CampaignCatalog::synthetic(campaigns, seed).into_campaigns();
        // Starve the budgets so depletion actually happens mid-stream.
        for c in &mut cs {
            c.budget *= 1e-4;
        }
        let mut mc = MarketplaceConfig::paced();
        mc.floors = PriceFloors::uniform(floor);
        let types = mc.assign_types(&cs);
        let mut ex = Exchange::new(cs, seed);
        ex.configure_marketplace(&mc, &types);
        let horizon = SimTime::from_hours(100);
        let mut sold = Vec::new();
        for k in 0u64..300 {
            let t = SimTime::from_mins(k * 20);
            if let Some(s) = ex.run_auction(&SlotOffer::realtime(t, None)) {
                sold.push(s);
            }
            if k % 30 == 29 {
                ex.pacing_tick(t, horizon);
            }
            // Refund a pseudo-random prior sale now and then.
            if refund_mask & (1 << (k % 64)) != 0 && !sold.is_empty() {
                let s = sold.swap_remove((k as usize * 7) % sold.len());
                ex.refund(s.campaign, s.price);
            }
            for c in ex.campaigns() {
                prop_assert!(c.budget >= 0.0, "campaign {:?} budget {} negative", c.id, c.budget);
            }
        }
    }

    /// `debit` followed by `credit` of the same amount restores the
    /// budget exactly (bitwise): on a shared dyadic grid the float
    /// subtraction and addition are both exact, so any drift would be a
    /// bookkeeping bug (a fee, a clamp, a lost update), not rounding.
    #[test]
    fn debit_refund_round_trip_restores_budget_exactly(
        budget_units in 1u32..(1 << 20),
        price_frac in 0u32..=1000,
    ) {
        let budget = budget_units as f64 / 1024.0;
        let price_units = (budget_units as u64 * price_frac as u64 / 1000) as u32;
        let price = price_units as f64 / 1024.0;
        let mut c = Campaign {
            id: CampaignId(0),
            budget,
            bid: BidModel {
                mean_price: 0.002,
                cv: 0.5,
                participation: 1.0,
                target_category: None,
            },
        };
        c.debit(price);
        prop_assert!(c.budget >= 0.0);
        c.credit(price);
        prop_assert_eq!(c.budget.to_bits(), budget.to_bits(), "round-trip drifted");
    }

    /// The exchange-level refund path credits exactly the refunded
    /// amount to exactly the right campaign; unknown ids are no-ops.
    #[test]
    fn exchange_refund_credits_exactly(
        budget_units in 1u32..(1 << 20),
        price_frac in 0u32..=1000,
    ) {
        let budget = budget_units as f64 / 1024.0;
        let price = (budget_units as u64 * price_frac as u64 / 1000) as u32 as f64 / 1024.0;
        let mk = |id: u32| Campaign {
            id: CampaignId(id),
            budget,
            bid: BidModel {
                mean_price: 0.002,
                cv: 0.5,
                participation: 1.0,
                target_category: None,
            },
        };
        let mut ex = Exchange::new(vec![mk(7), mk(9)], 1);
        ex.refund(CampaignId(7), price);
        prop_assert_eq!(
            ex.campaigns()[0].budget.to_bits(),
            (budget + price).to_bits(),
            "refund must credit exactly the refunded amount"
        );
        prop_assert_eq!(
            ex.campaigns()[1].budget.to_bits(),
            budget.to_bits(),
            "refund must not touch other campaigns"
        );
        ex.refund(CampaignId(999), price);
        prop_assert_eq!(
            ex.campaigns()[1].budget.to_bits(),
            budget.to_bits(),
            "unknown-campaign refunds must be no-ops"
        );
    }

    /// Paced multipliers stay within the configured clamps under
    /// arbitrary (scheduled, actual) update sequences.
    #[test]
    fn paced_multipliers_stay_within_clamps(
        gain in 0.01f64..3.0,
        min in 0.01f64..0.9,
        span in 1.0f64..30.0,
        updates in prop::collection::vec((0.0f64..1e6, 0.0f64..1e6), 1..120),
    ) {
        let max = min + span;
        let mut ctl = PacingController::new(gain, min, max);
        for (scheduled, actual) in updates {
            ctl.adjust(scheduled, actual);
            prop_assert!(
                ctl.value() >= min && ctl.value() <= max,
                "multiplier {} escaped [{min}, {max}]",
                ctl.value()
            );
        }
    }

    /// The same clamp invariant holds end-to-end through the exchange's
    /// pacing ticks.
    #[test]
    fn exchange_multipliers_stay_within_clamps(
        seed in any::<u64>(),
        campaigns in 1u32..20,
        ticks in 1u64..40,
    ) {
        let cs = CampaignCatalog::synthetic(campaigns, seed).into_campaigns();
        let mc = MarketplaceConfig::paced();
        let types = mc.assign_types(&cs);
        let mut ex = Exchange::new(cs, seed);
        ex.configure_marketplace(&mc, &types);
        let horizon = SimTime::from_hours(ticks);
        for k in 1..=ticks {
            let t = SimTime::from_hours(k);
            for _ in 0..25 {
                ex.run_auction(&SlotOffer::realtime(t, None));
            }
            ex.pacing_tick(t, horizon);
            for m in ex.multipliers() {
                // Unpaced entries report 1.0, which the default clamp
                // range contains, so one bound check covers both.
                prop_assert!(
                    (MarketplaceConfig::MIN_MULTIPLIER..=MarketplaceConfig::MAX_MULTIPLIER).contains(&m),
                    "multiplier {m} escaped the clamp"
                );
            }
        }
    }
}

/// Regression: an exchange that never ran an auction reports a 0.0 fill
/// rate, not NaN.
#[test]
fn fill_rate_with_zero_auctions_is_zero_not_nan() {
    let ex = Exchange::new(CampaignCatalog::synthetic(5, 1).into_campaigns(), 1);
    assert_eq!(ex.auctions_run(), 0);
    let rate = ex.fill_rate();
    assert!(!rate.is_nan(), "zero-auction fill rate must not be NaN");
    assert_eq!(rate, 0.0);
}
