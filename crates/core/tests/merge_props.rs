//! Property tests for the sharded-report reduction: `SimReport::merge`,
//! one registry merge plus the energy, ledger and per-user folds, must
//! behave like a sum over disjoint shard populations.

use adpf_auction::LedgerTotals;
use adpf_core::SimReport;
use adpf_energy::EnergyBreakdown;
use proptest::prelude::*;

/// Builds a report from a compact tuple of generated scalars.
fn report(
    counters: (u64, u64, u64, u64, u64),
    money: (f64, f64, f64),
    energy: (f64, f64, f64),
    per_user: Vec<f64>,
    days: u32,
) -> SimReport {
    let (slots, impressions, cache_hits, syncs, sold) = counters;
    let (revenue, sold_value, refunded) = money;
    let (promotion_j, transfer_j, tail_j) = energy;
    let mut r = SimReport::empty();
    r.config = "prop".into();
    r.users = per_user.len() as u32;
    r.days = days;
    let counts = [
        ("sim.event.slot", slots),
        ("sim.impressions", impressions),
        ("sim.cache_hits", cache_hits),
        (
            "sim.realtime_fetches",
            impressions.saturating_sub(cache_hits),
        ),
        ("sim.unfilled", slots.saturating_sub(impressions)),
        ("sim.syncs", syncs),
        ("sim.syncs_skipped", syncs / 2),
        ("sim.syncs_dropped", syncs / 7),
        ("overbooking.replicas_registered", sold / 3),
        ("overbooking.rescues", sold / 11),
    ];
    for (name, n) in counts {
        r.metrics.add(name, n);
    }
    r.energy = EnergyBreakdown {
        promotion_j,
        transfer_j,
        tail_j,
        transfers: syncs,
        promotions: syncs,
        bytes_down: slots * 4096,
        bytes_up: impressions * 512,
        ..EnergyBreakdown::default()
    };
    r.per_user_energy_j = per_user;
    r.ledger = LedgerTotals {
        sold,
        billed: sold / 2,
        revenue,
        sold_value,
        expired: sold - sold / 2,
        refunded,
        duplicates: sold / 5,
        late_displays: sold / 9,
    };
    r
}

/// One strategy drawing a whole report. Counters stay below 2^32 so sums
/// of three reports cannot overflow u64; money/energy stay positive and
/// well-scaled.
fn arb_report() -> impl Strategy<Value = SimReport> {
    (
        (
            0u64..1 << 32,
            0u64..1 << 32,
            0u64..1 << 32,
            0u64..1 << 32,
            0u64..1 << 32,
        ),
        (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6),
        (0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9),
        prop::collection::vec(0.0f64..1e4, 0..8),
        0u32..64,
    )
        .prop_map(|(counters, money, energy, per_user, days)| {
            report(counters, money, energy, per_user, days)
        })
}

/// Exact equality on the integer (counting) fields, which must merge
/// without any tolerance.
fn int_fields(r: &SimReport) -> Vec<u64> {
    vec![
        r.users as u64,
        r.days as u64,
        r.slots(),
        r.impressions(),
        r.cache_hits(),
        r.realtime_fetches(),
        r.unfilled(),
        r.syncs(),
        r.syncs_skipped(),
        r.syncs_dropped(),
        r.replicas_assigned(),
        r.energy.transfers,
        r.energy.promotions,
        r.energy.bytes_down,
        r.energy.bytes_up,
        r.ledger.sold,
        r.ledger.billed,
        r.ledger.expired,
        r.ledger.duplicates,
        r.ledger.late_displays,
    ]
}

/// The floating-point (additive) fields.
fn float_fields(r: &SimReport) -> Vec<f64> {
    vec![
        r.energy.promotion_j,
        r.energy.transfer_j,
        r.energy.tail_j,
        r.ledger.revenue,
        r.ledger.sold_value,
        r.ledger.refunded,
    ]
}

fn close(a: &[f64], b: &[f64], rel: f64) -> bool {
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (x - y).abs() <= rel * x.abs().max(y.abs()).max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_with_empty_is_identity(a in arb_report()) {
        let mut left = SimReport::empty();
        left.merge(&a);
        prop_assert_eq!(&left, &a);
        let mut right = a.clone();
        right.merge(&SimReport::empty());
        prop_assert_eq!(&right, &a);
    }

    #[test]
    fn merge_is_commutative_on_additive_fields(a in arb_report(), b in arb_report()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(int_fields(&ab), int_fields(&ba));
        // IEEE-754 addition is exactly commutative, so even the float
        // fields must match bit-for-bit.
        prop_assert_eq!(float_fields(&ab), float_fields(&ba));
        // The per-user series is order-sensitive by design (shard order
        // encodes user indexing), but its contents are permutations.
        let mut pa = ab.per_user_energy_j.clone();
        let mut pb = ba.per_user_energy_j.clone();
        pa.sort_by(f64::total_cmp);
        pb.sort_by(f64::total_cmp);
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn merge_is_associative_on_additive_fields(
        a in arb_report(),
        b in arb_report(),
        c in arb_report(),
    ) {
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(int_fields(&left), int_fields(&right));
        // Float addition is not exactly associative; the totals must
        // agree to rounding error.
        prop_assert!(
            close(&float_fields(&left), &float_fields(&right), 1e-12),
            "{:?} vs {:?}",
            float_fields(&left),
            float_fields(&right)
        );
        // Concatenation, however, is exactly associative.
        prop_assert_eq!(&left.per_user_energy_j, &right.per_user_energy_j);
        prop_assert_eq!(left.users, right.users);
    }

    #[test]
    fn merge_accumulates_user_series_in_order(a in arb_report(), b in arb_report()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_eq!(m.users as usize, m.per_user_energy_j.len());
        let expected: Vec<f64> = a
            .per_user_energy_j
            .iter()
            .chain(b.per_user_energy_j.iter())
            .copied()
            .collect();
        prop_assert_eq!(m.per_user_energy_j, expected);
    }
}
