//! Property tests for registry merging: the per-shard merge must be
//! order-insensitive for counters/gauges and bucket-exact for
//! histograms, mirroring the `SimReport::merge` determinism contract.

use adpf_obs::{Histogram, MetricRegistry};
use proptest::prelude::*;

const COUNTERS: [&str; 3] = ["c.syncs", "c.retries", "c.failures"];
const GAUGES: [&str; 2] = ["g.peak_a", "g.peak_b"];
const HISTS: [&str; 2] = ["h.delay_ms", "h.depth"];

/// One generated update: (shard, metric family, metric index, value).
type Op = (usize, u8, usize, u64);

fn apply(reg: &MetricRegistry, &(_, family, idx, value): &Op) {
    match family % 3 {
        0 => reg.add(COUNTERS[idx % COUNTERS.len()], value % 1_000),
        1 => reg.gauge_max(GAUGES[idx % GAUGES.len()], value),
        _ => reg.observe(HISTS[idx % HISTS.len()], value),
    }
}

fn shard_registries(ops: &[Op], shards: usize) -> Vec<MetricRegistry> {
    let regs: Vec<MetricRegistry> = (0..shards).map(|_| MetricRegistry::new()).collect();
    for op in ops {
        apply(&regs[op.0 % shards], op);
    }
    regs
}

fn merge_in_order(regs: &[MetricRegistry], order: impl Iterator<Item = usize>) -> MetricRegistry {
    let mut merged = MetricRegistry::new();
    for i in order {
        merged.merge(&regs[i]);
    }
    merged
}

proptest! {
    #[test]
    fn merge_is_order_insensitive(
        ops in prop::collection::vec((0usize..5, 0u8..3, 0usize..3, 0u64..2_000_000), 1..250),
        shards in 2usize..6,
    ) {
        let regs = shard_registries(&ops, shards);
        let fwd = merge_in_order(&regs, 0..shards);
        let rev = merge_in_order(&regs, (0..shards).rev());
        // An arbitrary rotation as a third order.
        let rot = merge_in_order(&regs, (0..shards).map(|i| (i + shards / 2) % shards));
        prop_assert_eq!(fwd.snapshot(), rev.snapshot());
        prop_assert_eq!(fwd.snapshot(), rot.snapshot());
    }

    #[test]
    fn merged_shards_are_bucket_exact_vs_a_single_registry(
        ops in prop::collection::vec((0usize..5, 0u8..3, 0usize..3, 0u64..2_000_000), 1..250),
        shards in 1usize..6,
    ) {
        // Applying every op to one registry must equal sharding the ops
        // and merging: histograms bucket-for-bucket, counters exactly.
        let whole = MetricRegistry::new();
        for op in &ops {
            apply(&whole, op);
        }
        let merged = merge_in_order(&shard_registries(&ops, shards), 0..shards);
        prop_assert_eq!(whole.snapshot(), merged.snapshot());
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(0u64..u64::MAX, 0..100),
        split in 0usize..100,
    ) {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        let cut = split % (xs.len() + 1);
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i < cut {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        prop_assert_eq!(&lr, &all);
        prop_assert_eq!(&rl, &all);
    }
}
