//! Property-based tests for the exchange and billing ledger.

use std::collections::HashMap;

use adpf_auction::{
    AdId, AdState, CampaignCatalog, CampaignId, Exchange, ImpressionOutcome, Ledger, LedgerTotals,
    SlotOffer, SoldAd,
};
use adpf_desim::SimTime;
use proptest::prelude::*;

/// The ledger as a hash map of full entries that scans and sorts on
/// every sweep: what [`Ledger`] was before it became an arena, kept as
/// the obviously-correct model the arena is held to.
#[derive(Default)]
struct ModelLedger {
    ads: HashMap<AdId, (CampaignId, f64, SimTime, AdState)>,
    totals: LedgerTotals,
}

impl ModelLedger {
    fn record_sale(&mut self, ad: &SoldAd) {
        self.ads.insert(
            ad.id,
            (ad.campaign, ad.price, ad.deadline, AdState::Pending),
        );
        self.totals.sold += 1;
        self.totals.sold_value += ad.price;
    }

    fn record_impression(&mut self, ad: AdId, at: SimTime) -> ImpressionOutcome {
        let Some((_, price, deadline, state)) = self.ads.get_mut(&ad) else {
            return ImpressionOutcome::Unknown;
        };
        match *state {
            AdState::Pending if at <= *deadline => {
                *state = AdState::Displayed;
                self.totals.billed += 1;
                self.totals.revenue += *price;
                ImpressionOutcome::Billed
            }
            AdState::Pending => {
                *state = AdState::Expired;
                self.totals.expired += 1;
                self.totals.refunded += *price;
                self.totals.late_displays += 1;
                ImpressionOutcome::Late
            }
            AdState::Displayed => {
                self.totals.duplicates += 1;
                ImpressionOutcome::Duplicate
            }
            AdState::Expired => {
                self.totals.late_displays += 1;
                ImpressionOutcome::Late
            }
        }
    }

    fn expire_due(&mut self, now: SimTime) -> Vec<(AdId, CampaignId, f64)> {
        let mut due: Vec<AdId> = self
            .ads
            .iter()
            .filter(|(_, e)| e.3 == AdState::Pending && e.2 < now)
            .map(|(&id, _)| id)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .map(|id| {
                let e = self.ads.get_mut(&id).expect("collected above");
                e.3 = AdState::Expired;
                self.totals.expired += 1;
                self.totals.refunded += e.1;
                (id, e.0, e.1)
            })
            .collect()
    }
}

fn totals_bits(t: LedgerTotals) -> [u64; 8] {
    [
        t.sold,
        t.billed,
        t.revenue.to_bits(),
        t.sold_value.to_bits(),
        t.expired,
        t.refunded.to_bits(),
        t.duplicates,
        t.late_displays,
    ]
}

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

    /// Ledger conservation under arbitrary operation interleavings:
    /// `billed + expired <= sold`, `revenue + refunded == settled value`,
    /// and every ad settles exactly once.
    #[test]
    fn ledger_conserves_value(
        ops in prop::collection::vec((0u8..3, 0u64..20, 0u64..200), 1..200),
    ) {
        let mut ledger = Ledger::new();
        let mut registered = std::collections::HashSet::new();
        for (op, ad, hours) in ops {
            match op {
                0 => {
                    if registered.insert(ad) {
                        ledger.record_sale(&SoldAd {
                            id: AdId(ad),
                            campaign: CampaignId(1),
                            price: 0.001 + ad as f64 * 1e-5,
                            winning_bid: 0.001 + ad as f64 * 1e-5,
                            deadline: SimTime::from_hours(hours % 48),
                            sold_at: SimTime::ZERO,
                        });
                    }
                }
                1 => {
                    let outcome =
                        ledger.record_impression(AdId(ad), SimTime::from_hours(hours));
                    if !registered.contains(&ad) {
                        prop_assert_eq!(outcome, ImpressionOutcome::Unknown);
                    }
                }
                _ => {
                    ledger.expire_due(SimTime::from_hours(hours), &mut Vec::new());
                }
            }
            let t = ledger.totals();
            prop_assert!(t.billed + t.expired <= t.sold);
            prop_assert!(t.revenue + t.refunded <= t.sold_value + 1e-9);
        }
        // Settle everything and check exact conservation.
        ledger.expire_due(SimTime::from_hours(10_000), &mut Vec::new());
        let t = ledger.totals();
        prop_assert_eq!(t.billed + t.expired, t.sold);
        prop_assert!((t.revenue + t.refunded - t.sold_value).abs() < 1e-9);
    }

    /// The arena ledger against the hash-map model under arbitrary
    /// operation sequences: dense, sparse and descending id layouts,
    /// ids never sold, `SimTime::MAX` deadlines, displays exactly at the
    /// deadline and after expiry. Every outcome, every state, the totals
    /// (floats bitwise) and the refund lists (in id order) must agree.
    #[test]
    fn arena_ledger_matches_the_hash_map_model(
        layout in 0u8..3,
        ops in prop::collection::vec((0u8..8, 0u64..48, 0u64..40), 1..250),
    ) {
        let id_of = |k: u64| AdId(match layout {
            0 => k,
            1 => 5 + 37 * k,
            _ => 4_000 - 13 * k,
        });
        let mut ledger = Ledger::new();
        let mut model = ModelLedger::default();
        let mut deadline_of = HashMap::new();
        let mut refunds = vec![(AdId(u64::MAX), CampaignId(0), 0.0)];
        for (op, k, hours) in ops {
            let id = id_of(k);
            match op {
                0..=2 => {
                    if deadline_of.contains_key(&id) {
                        continue;
                    }
                    let deadline = if hours % 8 == 0 {
                        SimTime::MAX
                    } else {
                        SimTime::from_hours(hours)
                    };
                    deadline_of.insert(id, deadline);
                    let price = 0.001 + k as f64 * 1.37e-5 + hours as f64 * 1e-7;
                    let ad = SoldAd {
                        id,
                        campaign: CampaignId(k as u32 % 5),
                        price,
                        winning_bid: price,
                        deadline,
                        sold_at: SimTime::ZERO,
                    };
                    ledger.record_sale(&ad);
                    model.record_sale(&ad);
                }
                3..=5 => {
                    // Op 5 displays exactly at the deadline when there is one.
                    let at = match deadline_of.get(&id) {
                        Some(&d) if op == 5 && d != SimTime::MAX => d,
                        _ => SimTime::from_hours(hours),
                    };
                    prop_assert_eq!(
                        ledger.record_impression(id, at),
                        model.record_impression(id, at)
                    );
                }
                _ => {
                    ledger.expire_due(SimTime::from_hours(hours), &mut refunds);
                    let want = model.expire_due(SimTime::from_hours(hours));
                    prop_assert_eq!(refunds.len(), want.len());
                    for (got, want) in refunds.iter().zip(&want) {
                        prop_assert_eq!((got.0, got.1, got.2.to_bits()), (want.0, want.1, want.2.to_bits()));
                    }
                }
            }
            prop_assert_eq!(totals_bits(ledger.totals()), totals_bits(model.totals));
            prop_assert_eq!(ledger.state(id), model.ads.get(&id).map(|e| e.3));
        }
        // Every id the sequence could have named, sold or not.
        for k in 0..48 {
            let id = id_of(k);
            prop_assert_eq!(ledger.state(id), model.ads.get(&id).map(|e| e.3));
        }
        ledger.expire_due(SimTime::MAX, &mut refunds);
        prop_assert_eq!(refunds.len(), model.expire_due(SimTime::MAX).len());
        prop_assert_eq!(totals_bits(ledger.totals()), totals_bits(model.totals));
    }
}
