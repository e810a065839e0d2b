//! Property tests for the ad book: conservation under arbitrary
//! operation interleavings, and the arena book held to a hash-map model.

use std::collections::{HashMap, HashSet};

use adpf_auction::{AdId, CampaignId, SoldAd};
use adpf_desim::SimTime;
use adpf_overbooking::{AdBook, AdState, LedgerTotals, Record, Shown};
use proptest::prelude::*;

fn sold(id: AdId, campaign: u32, price: f64, deadline: SimTime) -> SoldAd {
    SoldAd {
        id,
        campaign: CampaignId(campaign),
        price,
        winning_bid: price,
        deadline,
        sold_at: SimTime::ZERO,
    }
}

/// A closed record: id, campaign, price bits and holders.
type Closed = (AdId, CampaignId, u64, Vec<u32>);

fn closed(r: &Record) -> Closed {
    (r.id, r.campaign, r.price.to_bits(), r.holders.to_vec())
}

/// A [`Shown`] as its variant's name and the record it closed, if any,
/// so book and model compare.
fn outcome(s: Shown) -> (&'static str, Option<Closed>) {
    match s {
        Shown::Billed(r) => ("billed", Some(closed(&r))),
        Shown::Expired(r) => ("expired", Some(closed(&r))),
        Shown::Duplicate => ("duplicate", None),
        Shown::Late => ("late", None),
        Shown::Unknown => ("unknown", None),
    }
}

/// Totals with every float as its shortest round-trip form: equal
/// strings mean equal bits.
fn bits(t: LedgerTotals) -> String {
    format!("{t:?}")
}

struct Entry {
    sale: SoldAd,
    state: AdState,
    holders: Vec<u32>,
    rescued: bool,
}

impl Entry {
    fn closed(&self) -> Closed {
        let s = &self.sale;
        (s.id, s.campaign, s.price.to_bits(), self.holders.clone())
    }
}

/// The book as a hash map of full entries that scans and sorts on every
/// sweep: what the billing ledger was before it became an arena, kept as
/// the obviously-correct model the book is held to.
#[derive(Default)]
struct ModelBook {
    ads: HashMap<AdId, Entry>,
    totals: LedgerTotals,
}

impl ModelBook {
    fn sell(&mut self, sale: &SoldAd, holders: &[u32]) {
        let entry = Entry {
            sale: *sale,
            state: AdState::Pending,
            holders: holders.to_vec(),
            rescued: false,
        };
        self.ads.insert(sale.id, entry);
        self.totals.sold += 1;
        self.totals.sold_value += sale.price;
    }

    fn report(&mut self, ad: AdId, at: SimTime) -> (&'static str, Option<Closed>) {
        let Some(e) = self.ads.get_mut(&ad) else {
            return ("unknown", None);
        };
        let t = &mut self.totals;
        match e.state {
            AdState::Pending if at <= e.sale.deadline => {
                e.state = AdState::Displayed;
                t.billed += 1;
                t.revenue += e.sale.price;
                ("billed", Some(e.closed()))
            }
            AdState::Pending => {
                e.state = AdState::Expired;
                t.expired += 1;
                t.refunded += e.sale.price;
                t.late_displays += 1;
                ("expired", Some(e.closed()))
            }
            AdState::Displayed => {
                t.duplicates += 1;
                ("duplicate", None)
            }
            AdState::Expired => {
                t.late_displays += 1;
                ("late", None)
            }
        }
    }

    /// Pending ads matching `keep`, in id order.
    fn pending(&self, keep: impl Fn(&Entry) -> bool) -> Vec<AdId> {
        let mut ids: Vec<AdId> = self
            .ads
            .iter()
            .filter(|(_, e)| e.state == AdState::Pending && keep(e))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn expire_due(&mut self, now: SimTime) -> Vec<Closed> {
        let due = self.pending(|e| e.sale.deadline < now);
        due.into_iter()
            .map(|id| {
                let e = self.ads.get_mut(&id).expect("collected above");
                e.state = AdState::Expired;
                self.totals.expired += 1;
                self.totals.refunded += e.sale.price;
                e.closed()
            })
            .collect()
    }

    fn rescue_to(&mut self, ad: AdId, client: u32) -> bool {
        match self.ads.get_mut(&ad) {
            Some(e)
                if e.state == AdState::Pending && !e.rescued && !e.holders.contains(&client) =>
            {
                e.holders.push(client);
                e.rescued = true;
                true
            }
            _ => false,
        }
    }
}

proptest! {
    /// Book conservation under arbitrary operation interleavings:
    /// `billed + expired <= sold`, `revenue + refunded == settled value`,
    /// and every ad settles exactly once.
    #[test]
    fn ledger_conserves_value(
        ops in prop::collection::vec((0u8..3, 0u64..20, 0u64..200), 1..200),
    ) {
        let mut book = AdBook::new();
        let mut registered = HashSet::new();
        for (op, ad, hours) in ops {
            match op {
                0 => {
                    if registered.insert(ad) {
                        let deadline = SimTime::from_hours(hours % 48);
                        let sale = sold(AdId(ad), 1, 0.001 + ad as f64 * 1e-5, deadline);
                        book.sell(&sale, &[(ad % 4) as u32]);
                    }
                }
                1 => {
                    let shown = book.report(AdId(ad), 0, SimTime::from_hours(hours));
                    if !registered.contains(&ad) {
                        prop_assert_eq!(shown, Shown::Unknown);
                    }
                }
                _ => {
                    book.expire_due(SimTime::from_hours(hours), &mut Vec::new());
                }
            }
            let t = book.totals();
            prop_assert!(t.revenue + t.refunded <= t.sold_value + 1e-9);
            prop_assert_eq!(t.billed + t.expired + book.len() as u64, t.sold);
        }
        // Settle everything and check exact conservation.
        book.expire_due(SimTime::from_hours(10_000), &mut Vec::new());
        let t = book.totals();
        prop_assert_eq!(t.billed + t.expired, t.sold);
        prop_assert!(book.is_empty());
        prop_assert!((t.revenue + t.refunded - t.sold_value).abs() < 1e-9);
    }

    /// The arena book against the hash-map model under arbitrary
    /// operation sequences: dense, sparse and descending id layouts,
    /// ids never sold, `SimTime::MAX` deadlines, displays exactly at the
    /// deadline and after expiry, rescues and rescue scans. Every
    /// outcome and the record it closes, every state, the cancellations
    /// a first display queues, the totals (floats bitwise) and the
    /// refund lists (in id order) must agree.
    #[test]
    fn arena_ledger_matches_the_hash_map_model(
        layout in 0u8..3,
        ops in prop::collection::vec((0u8..10, 0u64..48, 0u64..40), 1..250),
    ) {
        let id_of = |k: u64| AdId(match layout {
            0 => k,
            1 => 5 + 37 * k,
            _ => 4_000 - 13 * k,
        });
        let mut book = AdBook::new();
        let mut model = ModelBook::default();
        let (mut refunds, mut cancelled, mut due) = (Vec::new(), Vec::new(), Vec::new());
        for (op, k, hours) in ops {
            let id = id_of(k);
            let deadline = model.ads.get(&id).map(|e| e.sale.deadline);
            match op {
                0..=2 if deadline.is_none() => {
                    let deadline = match hours % 8 {
                        0 => SimTime::MAX,
                        _ => SimTime::from_hours(hours),
                    };
                    let price = 0.001 + k as f64 * 1.37e-5 + hours as f64 * 1e-7;
                    let sale = sold(id, k as u32 % 5, price, deadline);
                    let holders: Vec<u32> = (0..1 + hours as u32 % 3).map(|r| (k as u32 + r) % 7).collect();
                    book.sell(&sale, &holders);
                    model.sell(&sale, &holders);
                }
                0..=2 => {}
                3..=5 => {
                    // Op 5 displays exactly at the deadline when there is one.
                    let at = match deadline {
                        Some(d) if op == 5 && d != SimTime::MAX => d,
                        _ => SimTime::from_hours(hours),
                    };
                    let client = (hours % 7) as u32;
                    let got = outcome(book.report(id, client, at));
                    prop_assert_eq!(&got, &model.report(id, at));
                    // Every other holder, and only they, hear of a first display.
                    if let ("billed", Some((.., holders))) = got {
                        for h in holders {
                            cancelled.clear();
                            book.drain_cancellations(h, &mut cancelled);
                            prop_assert_eq!(&cancelled, &Vec::from_iter((h != client).then_some(id.0)));
                        }
                    }
                }
                6 => {
                    let client = (hours % 9) as u32;
                    prop_assert_eq!(book.rescue_to(id, client), model.rescue_to(id, client));
                }
                7 => {
                    let t = SimTime::from_hours(hours);
                    due.clear();
                    book.unrescued_due_before(t, &mut due);
                    let want = model.pending(|e| !e.rescued && e.sale.deadline < t);
                    let want: Vec<_> = want.into_iter().map(|id| (id, model.ads[&id].sale.deadline)).collect();
                    prop_assert_eq!(&due, &want);
                }
                _ => {
                    book.expire_due(SimTime::from_hours(hours), &mut refunds);
                    let got: Vec<Closed> = refunds.iter().map(closed).collect();
                    prop_assert_eq!(got, model.expire_due(SimTime::from_hours(hours)));
                }
            }
            prop_assert_eq!(bits(book.totals()), bits(model.totals));
            prop_assert_eq!(book.state(id), model.ads.get(&id).map(|e| e.state));
        }
        // Every id the sequence could have named, sold or not.
        for id in (0..48).map(id_of) {
            prop_assert_eq!(book.state(id), model.ads.get(&id).map(|e| e.state));
            let open = model.ads.get(&id).filter(|e| e.state == AdState::Pending);
            prop_assert_eq!(book.holders(id), open.map(|e| e.holders.as_slice()));
        }
        book.expire_due(SimTime::MAX, &mut refunds);
        let got: Vec<Closed> = refunds.iter().map(closed).collect();
        prop_assert_eq!(got, model.expire_due(SimTime::MAX));
        prop_assert_eq!(bits(book.totals()), bits(model.totals));
    }
}
