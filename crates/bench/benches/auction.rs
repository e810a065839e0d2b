//! Microbenchmarks of the sale path (substrate of E14a and every system
//! run): the exchange's auction kernel under each regime that takes a
//! different route through it, and the ad book's sale → impression →
//! expiry cycle.

use adpf_auction::{
    AdId, CampaignCatalog, CampaignId, Exchange, MarketplaceConfig, SlotOffer, SoldAd,
};
use adpf_desim::{SimDuration, SimTime};
use adpf_overbooking::AdBook;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BATCH: u64 = 1_000;

/// Runs one batch of auctions, refunding every sale so budgets — and
/// with them the work per auction — stay where they started however
/// long the harness keeps iterating.
fn run_batch(ex: &mut Exchange, offer: impl Fn(u64) -> SlotOffer) -> u32 {
    let mut filled = 0u32;
    for k in 0..BATCH {
        if let Some(sold) = ex.run_auction(&offer(k)) {
            ex.refund(sold.campaign, sold.price);
            filled += 1;
        }
    }
    filled
}

fn bench_auctions(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange_auction");
    g.throughput(Throughput::Elements(BATCH));
    for campaigns in [10u32, 50, 200] {
        g.bench_with_input(
            BenchmarkId::from_parameter(campaigns),
            &campaigns,
            |b, &n| {
                let mut ex = Exchange::new(CampaignCatalog::synthetic(n, 7).into_campaigns(), 7);
                b.iter(|| {
                    black_box(run_batch(&mut ex, |_| {
                        SlotOffer::realtime(SimTime::ZERO, None)
                    }))
                });
            },
        );
    }
    g.finish();
}

/// The routes besides the plain real-time one, all on the default
/// 50-campaign catalog size: the `batch-realtime-2t` workload's auction
/// (real-time slots, sales debited and never refunded), advance slots
/// (discounted, no app context), a contextual catalog offered slots with
/// a known category, and the paced marketplace (multiplied bids,
/// throttle draws, floors off).
fn bench_auction_regimes(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange_auction_regime");
    g.throughput(Throughput::Elements(BATCH));
    let advance = |_| SlotOffer::advance(SimTime::ZERO, SimTime::from_hours(4));

    // A real-time run bills every sale as it is shown, so nothing is
    // refunded and budgets only fall. A workload iteration runs about
    // 10^5 auctions per shard from fresh budgets; left to run for
    // millions, the field would thin (3 of 50 campaigns drop out by the
    // millionth), so the exchange starts over every 100 batches.
    g.bench_function("batch-realtime-2t", |b| {
        let catalog = CampaignCatalog::synthetic(50, 7).into_campaigns();
        let mut ex = Exchange::new(catalog.clone(), 7);
        let mut batches = 0u32;
        b.iter(|| {
            batches += 1;
            if batches.is_multiple_of(100) {
                ex = Exchange::new(catalog.clone(), 7);
            }
            let mut filled = 0u32;
            for _ in 0..BATCH {
                let slot = SlotOffer::realtime(SimTime::ZERO, None);
                filled += u32::from(ex.run_auction(&slot).is_some());
            }
            black_box(filled)
        });
    });

    g.bench_function("advance", |b| {
        let mut ex = Exchange::new(CampaignCatalog::synthetic(50, 7).into_campaigns(), 7);
        b.iter(|| black_box(run_batch(&mut ex, advance)));
    });

    g.bench_function("contextual", |b| {
        let catalog = CampaignCatalog::synthetic_with_targeting(50, 7, 0.3, 1.5);
        let mut ex = Exchange::new(catalog.into_campaigns(), 7);
        b.iter(|| {
            black_box(run_batch(&mut ex, |k| {
                let category = (k % u64::from(CampaignCatalog::NUM_CATEGORIES)) as u8;
                SlotOffer::realtime(SimTime::ZERO, Some(category))
            }))
        });
    });

    g.bench_function("paced", |b| {
        let campaigns = CampaignCatalog::synthetic(50, 7).into_campaigns();
        let mc = MarketplaceConfig::paced();
        let types = mc.assign_types(&campaigns);
        let mut ex = Exchange::new(campaigns, 7);
        ex.configure_marketplace(&mc, &types);
        // The controllers do their job: the clock advances an hour per
        // batch against a horizon no run reaches, sales are kept (not
        // refunded), and each tick steers spend toward that schedule, so
        // multipliers settle on both sides of 1 and throttles fire.
        let horizon = SimTime::from_hours(1_000_000);
        let mut hour = 0;
        b.iter(|| {
            hour += 1;
            ex.pacing_tick(SimTime::from_hours(hour), horizon);
            let mut filled = 0u32;
            for _ in 0..BATCH {
                filled += u32::from(ex.run_auction(&advance(0)).is_some());
            }
            black_box(filled)
        });
    });
    g.finish();
}

/// One book's life over a 12 h window: an ad sold every 40 ms with a
/// 4 h deadline, nine in ten displayed half an hour later, and the
/// engine's hourly expiry sweep.
fn bench_ledger(c: &mut Criterion) {
    const SALES: u64 = 12 * 3_600_000 / 40;
    let mut g = c.benchmark_group("ledger");
    g.throughput(Throughput::Elements(SALES));
    g.bench_function("sale_impression_expire_12h", |b| {
        let mut refunds = Vec::new();
        b.iter(|| {
            let mut book = AdBook::new();
            let mut next_sweep = SimTime::from_hours(1);
            let display_lag = 30 * 60_000 / 40;
            for id in 0..SALES {
                let now = SimTime::from_millis(id * 40);
                if now >= next_sweep {
                    book.expire_due(now, &mut refunds);
                    black_box(refunds.len());
                    next_sweep += SimDuration::from_hours(1);
                }
                let sold = SoldAd {
                    id: AdId(id),
                    campaign: CampaignId((id % 50) as u32),
                    price: 0.0015,
                    winning_bid: 0.002,
                    deadline: now + SimDuration::from_hours(4),
                    sold_at: now,
                };
                book.sell(&sold, &[0]);
                if let Some(shown) = id.checked_sub(display_lag).filter(|s| s % 10 != 0) {
                    black_box(book.report(AdId(shown), 0, now));
                }
            }
            black_box(book.totals())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_auctions, bench_auction_regimes, bench_ledger);
criterion_main!(benches);
