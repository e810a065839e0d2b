//! Advertiser campaigns.

use adpf_stats::dist::{Distribution, LogNormal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of an advertiser campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u32);

impl core::fmt::Display for CampaignId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// How a campaign bids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidModel {
    /// Mean per-impression bid, in currency units (a $2 CPM is `0.002`).
    pub mean_price: f64,
    /// Coefficient of variation of the bid distribution.
    pub cv: f64,
    /// Probability the campaign bids on any given slot (targeting reach).
    pub participation: f64,
    /// Contextual targeting: `Some(c)` restricts bidding to slots whose
    /// app category is *known* to be `c`. Advance-sold slots carry no app
    /// context, so contextual campaigns sit those auctions out — the
    /// context cost of prefetching the paper discusses.
    pub target_category: Option<u8>,
}

impl BidModel {
    /// Precomputes the model's sampling state (the lognormal parameter
    /// conversion: two `ln` calls and a square root) so per-slot bids
    /// skip straight to the draw. Campaign bid models never change after
    /// construction, so preparing once per campaign is sound.
    pub(crate) fn prepare(&self) -> PreparedBid {
        PreparedBid {
            part_k: participation_threshold(self.participation),
            target_category: self.target_category,
            dist: LogNormal::from_mean_cv(self.mean_price, self.cv).ok(),
        }
    }
}

/// Sentinel [`PreparedBid::part_k`]: the campaign bids without a
/// participation draw.
const NO_DRAW: u64 = u64::MAX;

/// The integer form of the participation test `unit(w) >= p`.
///
/// A uniform draw is `unit(w) = k · 2^-53` with `k = w >> 11`, so for an
/// integer `k` it holds exactly when `k >= ceil(p · 2^53)`; scaling by a
/// power of two is exact for every `p < 1`, subnormals included. `p >= 1`
/// and NaN draw nothing ([`NO_DRAW`]); `p <= 0` gives 0, which every
/// draw reaches, so the campaign always sits out. Every drawing threshold
/// is below `2^53`.
fn participation_threshold(p: f64) -> u64 {
    if p < 1.0 {
        // The cast saturates negative values at 0.
        (p * (1u64 << 53) as f64).ceil() as u64
    } else {
        NO_DRAW
    }
}

/// A [`BidModel`] with its bid distribution pre-parameterized.
///
/// [`PreparedBid::sample_log_paired`] consumes the RNG in a fixed order —
/// category check (no draw), then the participation draw, then the bid
/// draw — so every RNG stream, and therefore every simulated outcome, is
/// a pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedBid {
    /// The participation threshold: the campaign sits out when
    /// `next_u64() >> 11` reaches it (see [`participation_threshold`]).
    part_k: u64,
    target_category: Option<u8>,
    /// `None` when the model's `(mean_price, cv)` are out of the
    /// distribution's domain — such campaigns never bid (matching
    /// `from_mean_cv(..).ok()?` in the unprepared path).
    dist: Option<LogNormal>,
}

impl PreparedBid {
    /// The natural logarithm of one bid, or `None` if the campaign sits
    /// this slot out: the auction ranks bids in log space and pays for
    /// `exp` only on the few that can matter. `spare` caches the normal
    /// sampler's second polar variate; an exchange threading one `spare`
    /// slot through every bid draw of its stream halves the rejection
    /// loops, and the bid distribution is unchanged.
    #[inline]
    pub fn sample_log_paired<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        spare: &mut Option<f64>,
        slot_category: Option<u8>,
    ) -> Option<f64> {
        if let Some(c) = self.target_category {
            if slot_category != Some(c) {
                return None;
            }
        }
        if self.part_k != NO_DRAW && (rng.next_u64() >> 11) >= self.part_k {
            return None;
        }
        // The participation draw above must happen even when `dist` is
        // `None`, mirroring the unprepared evaluation order.
        Some(self.dist.as_ref()?.sample_log_paired(rng, spare))
    }
}

/// An advertiser campaign: a budget spent through per-impression bids.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign id.
    pub id: CampaignId,
    /// Remaining budget, in currency units.
    pub budget: f64,
    /// Bidding behaviour.
    pub bid: BidModel,
}

impl Campaign {
    /// Returns `true` while the campaign can still pay `price`.
    pub(crate) fn can_afford(&self, price: f64) -> bool {
        self.budget >= price
    }

    /// Debits `price` from the budget (clamped at zero).
    pub fn debit(&mut self, price: f64) {
        self.budget = (self.budget - price).max(0.0);
    }

    /// Credits `price` back (refund after an SLA expiration).
    pub fn credit(&mut self, price: f64) {
        self.budget += price;
    }
}

/// A synthetic catalog of campaigns with heterogeneous prices and budgets.
#[derive(Debug, Clone)]
pub struct CampaignCatalog {
    campaigns: Vec<Campaign>,
}

impl CampaignCatalog {
    /// Number of app categories contextual campaigns can target.
    pub const NUM_CATEGORIES: u8 = 8;

    /// Generates `n` untargeted campaigns deterministically from `seed`.
    ///
    /// Mean bids are lognormal around a $1.5 CPM; budgets span two orders
    /// of magnitude so some campaigns exhaust mid-trace (as real ones do).
    pub fn synthetic(n: u32, seed: u64) -> Self {
        Self::synthetic_with_targeting(n, seed, 0.0, 1.0)
    }

    /// Generates `n` campaigns of which `contextual_fraction` target one
    /// app category and bid a `contextual_premium` multiple of their base
    /// price (targeted impressions are worth more to advertisers).
    pub fn synthetic_with_targeting(
        n: u32,
        seed: u64,
        contextual_fraction: f64,
        contextual_premium: f64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe_f00d);
        let price_dist = LogNormal::from_mean_cv(0.0015, 0.6).expect("valid price params");
        let budget_dist = LogNormal::from_mean_cv(2_000.0, 1.5).expect("valid budget params");
        let campaigns = (0..n)
            .map(|i| {
                let contextual = rng.gen::<f64>() < contextual_fraction;
                let premium = if contextual { contextual_premium } else { 1.0 };
                Campaign {
                    id: CampaignId(i),
                    budget: budget_dist.sample(&mut rng).clamp(50.0, 100_000.0),
                    bid: BidModel {
                        mean_price: (premium * price_dist.sample(&mut rng)).clamp(0.0002, 0.05),
                        cv: rng.gen_range(0.2..0.8),
                        participation: rng.gen_range(0.3..1.0),
                        target_category: if contextual {
                            Some(rng.gen_range(0..Self::NUM_CATEGORIES))
                        } else {
                            None
                        },
                    },
                }
            })
            .collect();
        Self { campaigns }
    }

    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// Returns `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// Consumes the catalog into its campaigns.
    pub fn into_campaigns(self) -> Vec<Campaign> {
        self.campaigns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// One bid from a fresh spare, or `None` if the campaign sits out.
    fn bid(model: &BidModel, rng: &mut StdRng, slot_category: Option<u8>) -> Option<f64> {
        model
            .prepare()
            .sample_log_paired(rng, &mut None, slot_category)
            .map(f64::exp)
    }

    /// The float participation test the integer threshold replaced:
    /// the uniform `rng.gen::<f64>()` makes from `w`, against `p`.
    fn float_sits_out(w: u64, p: f64) -> bool {
        (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64) >= p
    }

    /// Yields `first`, then `rest`'s words, counting them: puts a chosen
    /// word under the participation draw.
    struct Scripted {
        first: Option<u64>,
        rest: StdRng,
        words: u64,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }
    }

    fn scripted(first: u64, rest: &StdRng) -> Scripted {
        Scripted {
            first: Some(first),
            rest: rest.clone(),
            words: 0,
        }
    }

    /// One bid of a valid model of participation `p`, its first word `w`
    /// and the rest from `rest`, and the words it read.
    fn bid_on(p: f64, w: u64, rest: &StdRng) -> (Option<u64>, u64) {
        let model = BidModel {
            mean_price: 0.002,
            cv: 0.4,
            participation: p,
            target_category: None,
        };
        let mut rng = scripted(w, rest);
        let bid = model.prepare().sample_log_paired(&mut rng, &mut None, None);
        (bid.map(f64::to_bits), rng.words)
    }

    proptest! {
        /// A campaign of participation `p < 1` reads one word and sits out
        /// exactly when the float test on that word says so, reading no
        /// other: on a random word and on the words either side of
        /// `ceil(p · 2^53) << 11`, for random `p` in (0, 1), exact
        /// multiples of 2^-53, 1 - 2^-53, subnormals, zero, a negative
        /// value and a synthetic catalog's values. `floor` for `ceil`
        /// fails on the word below a threshold and `>` for `>=` on the
        /// threshold itself.
        #[test]
        fn participation_threshold_is_exact(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let unit = 1.0 / (1u64 << 53) as f64;
            let mut ps = vec![
                rng.gen::<f64>(),
                // Uniform in exponent too, down to 2^-60.
                rng.gen::<f64>() * 2f64.powi(-rng.gen_range(0..60i32)),
                (rng.gen::<u64>() >> 11) as f64 * unit,
                1.0 - unit,
                unit,
                f64::from_bits(rng.gen_range(1..1u64 << 52)),
                f64::MIN_POSITIVE,
                0.0,
                -1.0,
            ];
            ps.extend(
                CampaignCatalog::synthetic(50, seed)
                    .into_campaigns()
                    .iter()
                    .map(|c| c.bid.participation),
            );
            for p in ps {
                let k = participation_threshold(p);
                prop_assert!(k < 1 << 53, "p = {:e} must draw", p);
                let mut words = vec![rng.gen::<u64>(), k << 11];
                if k > 0 {
                    words.push(((k - 1) << 11) | 0x7ff);
                }
                for w in words {
                    let (bid, read) = bid_on(p, w, &rng);
                    let at = format!("p = {p:e}, w = {w:#x}");
                    prop_assert_eq!(bid.is_none(), float_sits_out(w, p), "{}", at);
                    prop_assert!(bid.is_some() || read == 1, "{}: read {} words", at, read);
                }
            }
        }

        /// NaN and `p >= 1` read no participation word: the bid is the
        /// distribution's draw from the first word on.
        #[test]
        fn participation_of_one_or_nan_draws_nothing(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = rng.gen::<u64>();
            let dist = LogNormal::from_mean_cv(0.002, 0.4).expect("valid bid params");
            let mut direct = scripted(w, &rng);
            let x = dist.sample_log_paired(&mut direct, &mut None);
            for p in [f64::NAN, 1.0, 1.5, f64::INFINITY] {
                prop_assert_eq!(bid_on(p, w, &rng), (Some(x.to_bits()), direct.words), "p = {}", p);
            }
        }
    }

    #[test]
    fn catalog_is_deterministic_and_heterogeneous() {
        let a = CampaignCatalog::synthetic(50, 1).into_campaigns();
        let b = CampaignCatalog::synthetic(50, 1).into_campaigns();
        assert_eq!(a, b);
        let prices: Vec<f64> = a.iter().map(|c| c.bid.mean_price).collect();
        let min = prices.iter().cloned().fold(f64::MAX, f64::min);
        let max = prices.iter().cloned().fold(0.0, f64::max);
        assert!(max > 2.0 * min, "prices should spread: {min}..{max}");
    }

    #[test]
    fn budget_debit_credit() {
        let mut c = Campaign {
            id: CampaignId(0),
            budget: 1.0,
            bid: BidModel {
                mean_price: 0.001,
                cv: 0.3,
                participation: 1.0,
                target_category: None,
            },
        };
        assert!(c.can_afford(0.5));
        c.debit(0.6);
        assert!((c.budget - 0.4).abs() < 1e-12);
        assert!(!c.can_afford(0.5));
        c.credit(0.6);
        assert!(c.can_afford(0.5));
        c.debit(10.0);
        assert_eq!(c.budget, 0.0);
    }

    #[test]
    fn participation_gates_bidding() {
        let never = BidModel {
            mean_price: 0.001,
            cv: 0.3,
            participation: 0.0,
            target_category: None,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| bid(&never, &mut rng, None).is_none()));
        let always = BidModel {
            participation: 1.0,
            ..never
        };
        assert!((0..100).all(|_| bid(&always, &mut rng, None).is_some()));
    }

    #[test]
    fn bids_are_positive_and_near_mean() {
        let model = BidModel {
            mean_price: 0.002,
            cv: 0.4,
            participation: 1.0,
            target_category: None,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let bids: Vec<f64> = (0..10_000)
            .filter_map(|_| bid(&model, &mut rng, None))
            .collect();
        assert!(bids.iter().all(|&b| b > 0.0));
        let mean = bids.iter().sum::<f64>() / bids.len() as f64;
        assert!((mean - 0.002).abs() < 0.0002, "mean {mean}");
    }

    #[test]
    fn contextual_campaigns_only_bid_on_matching_context() {
        let model = BidModel {
            mean_price: 0.002,
            cv: 0.3,
            participation: 1.0,
            target_category: Some(3),
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..50).all(|_| bid(&model, &mut rng, None).is_none()));
        assert!((0..50).all(|_| bid(&model, &mut rng, Some(2)).is_none()));
        assert!((0..50).all(|_| bid(&model, &mut rng, Some(3)).is_some()));
    }

    #[test]
    fn targeting_catalog_mixes_campaign_types() {
        let c = CampaignCatalog::synthetic_with_targeting(200, 9, 0.4, 1.5).into_campaigns();
        let contextual = c.iter().filter(|c| c.bid.target_category.is_some()).count();
        assert!(
            (50..=110).contains(&contextual),
            "expected ~40% contextual, got {contextual}/200"
        );
        for camp in &c {
            if let Some(cat) = camp.bid.target_category {
                assert!(cat < CampaignCatalog::NUM_CATEGORIES);
            }
        }
        // Plain `synthetic` stays untargeted.
        let plain = CampaignCatalog::synthetic(50, 9).into_campaigns();
        assert!(plain.iter().all(|c| c.bid.target_category.is_none()));
    }
}
