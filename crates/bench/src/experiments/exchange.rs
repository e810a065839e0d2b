//! E14: exchange clearing.

use adpf_auction::{CampaignCatalog, Exchange, SlotOffer};
use adpf_desim::SimTime;

use crate::table::{f, pct, Note, Table};

/// E14: real-time vs. advance clearing prices in the exchange.
pub(crate) fn e14_exchange_clearing() -> Table {
    let mut prices = Table::new(
        "E14a",
        "exchange clearing: real-time vs. advance sale",
        Note::Paper(
            "advance slots clear at second price minus the risk discount; contextual campaigns \
             cannot bid on them, so targeting erodes advance prices further",
        ),
        &[
            "discount",
            "contextual",
            "auctions",
            "fill",
            "advance/realtime revenue",
        ],
    );
    for (discount, contextual) in [(1.0, 0.0), (0.95, 0.0), (0.9, 0.0), (1.0, 0.3), (1.0, 0.6)] {
        let n = 5_000;
        let mut rt_rev = 0.0;
        let mut adv_rev = 0.0;
        let mk = || {
            Exchange::new(
                CampaignCatalog::synthetic_with_targeting(40, 7, contextual, 1.5).into_campaigns(),
                7,
            )
        };
        let mut rt = mk();
        let mut adv = mk();
        adv.advance_discount = discount;
        for k in 0..n {
            let category = Some((k % 8) as u8);
            if let Some(s) = rt.run_auction(&SlotOffer::realtime(SimTime::ZERO, category)) {
                rt_rev += s.price;
            }
            if let Some(s) =
                adv.run_auction(&SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(12)))
            {
                adv_rev += s.price;
            }
        }
        prices.push(vec![
            f(discount, 2),
            pct(contextual),
            n.to_string(),
            pct(adv.fill_rate()),
            f(adv_rev / rt_rev, 3),
        ]);
    }
    prices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_discount_tracks_revenue_ratio() {
        let prices = e14_exchange_clearing();
        for row in &prices.rows {
            let discount: f64 = row[0].to_string().parse().unwrap();
            let contextual: f64 = row[1].to_string().trim_end_matches('%').parse().unwrap();
            let ratio: f64 = row[4].to_string().parse().unwrap();
            if contextual == 0.0 {
                assert!(
                    (ratio - discount).abs() < 0.05,
                    "discount {discount} ratio {ratio}"
                );
            } else {
                // Contextual campaigns can only lift real-time revenue.
                assert!(ratio < 1.0, "contextual {contextual}% ratio {ratio}");
            }
        }
    }
}
