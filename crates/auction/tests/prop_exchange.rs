//! Property-based tests for the exchange.

use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
use adpf_desim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Exchange invariants under arbitrary auction streams: prices respect
    /// the reserve (scaled by the advance discount), budgets only shrink
    /// by what was charged, and ids are strictly increasing.
    #[test]
    fn exchange_prices_and_budgets(
        seed in any::<u64>(),
        campaigns in 1u32..40,
        auctions in 1usize..300,
        advance in any::<bool>(),
    ) {
        let mut ex = Exchange::new(
            CampaignCatalog::synthetic(campaigns, seed).into_campaigns(),
            seed,
        );
        let budget_before = ex.total_budget();
        let offer = if advance {
            SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(4))
        } else {
            SlotOffer::realtime(SimTime::ZERO, None)
        };
        let floor = if advance {
            ex.reserve_price * ex.advance_discount
        } else {
            ex.reserve_price
        };
        let mut charged = 0.0;
        let mut last_id = None;
        for _ in 0..auctions {
            if let Some(sold) = ex.run_auction(&offer) {
                prop_assert!(sold.price >= floor - 1e-12, "price {} below floor", sold.price);
                if let Some(prev) = last_id {
                    prop_assert!(sold.id > prev);
                }
                last_id = Some(sold.id);
                charged += sold.price;
            }
        }
        prop_assert!((budget_before - ex.total_budget() - charged).abs() < 1e-6);
    }
}
