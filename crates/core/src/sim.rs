//! The end-to-end discrete-event simulation.
//!
//! Since the serving split, the per-client decision logic lives in
//! [`crate::engine::ClientEngine`]; this module keeps what is specific
//! to *batch replay*: the precomputed slot stream, the shard derivation
//! and work-stealing scheduler, and the shard-ordered merge. The batch
//! [`Simulator`] is now one client of the engine — the online server in
//! `adpf-serve` is the other — and both produce bit-identical reports
//! for the same `(config, slot stream)`.

use std::sync::Mutex;

use adpf_auction::{Campaign, CampaignCatalog, CampaignType};
use adpf_obs::{MetricRegistry, ObsSink};
use adpf_traces::{shard_ranges, AdSlot, Trace, UserSlots};

use crate::config::SystemConfig;
use crate::engine::{ClientEngine, EngineScratch};
use crate::report::SimReport;
use adpf_desim::WorkQueue;

/// Minimum number of logical shards used by [`Simulator::run_parallel`]
/// (the historical fixed shard count, kept as the floor so every
/// population of up to `DEFAULT_SHARDS × USERS_PER_SHARD` users keeps the
/// report hashes recorded before shard derivation existed).
///
/// The shard count is derived from the population size (then clamped to
/// it) rather than from the thread count: shards are the unit of
/// simulation semantics (candidate pools, RNG streams, budget shares)
/// while threads are only a scheduling choice, so the same trace and seed
/// produce bit-identical merged reports at any thread count.
pub const DEFAULT_SHARDS: usize = 8;

/// Preferred upper bound on derived shard counts. Caps per-shard setup
/// overhead (each shard builds its own exchange and client table) and
/// keeps the smallest shard large enough for replica candidate pools to
/// matter. It is a *soft* cap: once honoring it would put more than
/// [`MAX_USERS_PER_SHARD`] users in one shard, the count grows past it —
/// see [`default_shards`].
pub const MAX_SHARDS: usize = 64;

/// Target users per shard when deriving the shard count. At the floor of
/// [`DEFAULT_SHARDS`] shards this keeps every population up to 320 users
/// — all test and quick-bench populations — at exactly the historical 8
/// shards (hash-stable), while production-scale populations get enough
/// shards that an 8-thread run is not starved for work (the paper's
/// 1,693-user iPhone population derives 43).
pub const USERS_PER_SHARD: usize = 40;

/// Hard ceiling on users per derived shard. A shard is the streaming
/// pipeline's unit of residency — its sub-trace, client table, and slot
/// stream are all alive at once — so this constant *is* the peak-memory
/// bound of a streaming run: O(`MAX_USERS_PER_SHARD` × threads) users
/// resident, regardless of population size. A million-user run derives
/// ~489 shards of ≤2,048 users instead of being stranded at
/// [`MAX_SHARDS`] shards of ~15,600.
pub const MAX_USERS_PER_SHARD: usize = 2_048;

/// Number of logical shards [`Simulator::run_parallel`] uses for a
/// population of `num_users`: one shard per [`USERS_PER_SHARD`] users,
/// clamped to `[DEFAULT_SHARDS, cap]` where the cap is [`MAX_SHARDS`]
/// raised, when necessary, to whatever keeps every shard at or below
/// [`MAX_USERS_PER_SHARD`] users.
///
/// The derivation depends only on the population size — deliberately
/// never on thread count or host — so the merged report stays a
/// deterministic function of `(config, trace)` at every thread count
/// (the invariant the equivalence suites pin). Threads are still served:
/// any population big enough to want more parallelism than
/// [`MAX_SHARDS`] shards already derives at least 64 of them, which
/// saturates every realistic worker count, and the work-stealing
/// scheduler keeps all workers busy regardless of the shard/thread
/// ratio.
pub fn default_shards(num_users: u32) -> usize {
    let users = num_users as usize;
    let cap = MAX_SHARDS.max(users.div_ceil(MAX_USERS_PER_SHARD));
    users.div_ceil(USERS_PER_SHARD).clamp(DEFAULT_SHARDS, cap)
}

/// Read-only state shared by every shard of one sharded run.
///
/// Everything here is a deterministic function of the *master* config
/// alone (never of `rng_stream` or `budget_fraction`, the two fields that
/// differ between shard configs), so building it once and handing each
/// shard a copy is bit-identical to each shard rebuilding it — that is
/// the invariant that lets per-shard setup be hoisted without touching
/// report hashes. Today the expensive shared piece is the campaign
/// catalog (per-campaign bid model synthesis); the other per-shard setup
/// (netem config parsing) was measured to be trivial and intentionally
/// stays inline. Placement scoring has none: its running Poisson tails
/// live in the candidate pool and on the sync's stack.
pub struct ShardContext {
    pub(crate) campaigns: Vec<Campaign>,
    /// Marketplace campaign-type assignment, index-aligned with
    /// `campaigns`. A pure function of the catalog order (see
    /// `MarketplaceConfig::assign_types`), so every shard sees the
    /// identical assignment — pacing-controller *placement* is shared
    /// state, while controller *trajectories* live per shard in each
    /// shard's exchange.
    pub(crate) campaign_types: Vec<CampaignType>,
}

impl ShardContext {
    /// Builds the shared context for one run of `config`.
    pub fn new(config: &SystemConfig) -> Self {
        let campaigns = CampaignCatalog::synthetic_with_targeting(
            config.campaigns,
            config.seed,
            config.contextual_fraction,
            config.contextual_premium,
        )
        .into_campaigns();
        let campaign_types = config.marketplace.assign_types(&campaigns);
        Self {
            campaigns,
            campaign_types,
        }
    }
}

/// Where a sharded run's per-shard traces come from.
///
/// `Materialized` is the classic pipeline: the full trace exists and is
/// split up front (all shard sub-traces alive simultaneously).
/// `Streaming` hands each worker a generator instead of a `&Trace`: a
/// shard's sub-trace is produced on the worker thread right before
/// simulation and dropped right after, so peak residency is bounded by
/// the number of *workers*, not the number of shards or users. Both
/// variants cut the population along [`shard_ranges`], which is what
/// keeps their merged reports bit-identical.
#[derive(Clone, Copy)]
enum ShardSupply<'a> {
    /// The full trace, split `n_shards` ways up front.
    Materialized(&'a Trace, usize),
    /// Lazy per-shard generation over an `n_shards`-way split of a
    /// `num_users` population.
    Streaming {
        num_users: u32,
        n_shards: usize,
        make: &'a (dyn Fn(usize) -> Trace + Sync),
    },
}

impl ShardSupply<'_> {
    fn num_users(&self) -> u32 {
        match self {
            ShardSupply::Materialized(trace, _) => trace.num_users(),
            ShardSupply::Streaming { num_users, .. } => *num_users,
        }
    }

    fn n_shards(&self) -> usize {
        match self {
            ShardSupply::Materialized(_, n) | ShardSupply::Streaming { n_shards: n, .. } => *n,
        }
    }
}

/// One configured simulation over one trace: a [`ClientEngine`] plus the
/// precomputed slot stream that drives it.
///
/// Construction precomputes the slot stream and builds per-client state;
/// [`Simulator::run`] consumes the simulator and produces a
/// [`SimReport`]. Runs are deterministic: the same `(config, trace)` pair
/// always yields the same report.
pub struct Simulator {
    engine: ClientEngine,
    slots: Vec<AdSlot>,
}

impl Simulator {
    /// Builds a simulator for `config` over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails — configurations are built in
    /// code, so an invalid one is a programming error.
    pub fn new(config: SystemConfig, trace: &Trace) -> Self {
        let ctx = ShardContext::new(&config);
        Self::with_context_scratch(config, trace, &ctx, EngineScratch::default())
    }

    /// [`Simulator::new`] against a prebuilt [`ShardContext`], recycling
    /// a previous engine's allocation set (see [`EngineScratch`]).
    ///
    /// Sharded runs build the context once and construct every shard's
    /// simulator from it; because the context depends only on fields the
    /// shard configs share, this is bit-identical to `new` on each shard
    /// config — and to building from a fresh scratch set.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    pub fn with_context_scratch(
        config: SystemConfig,
        trace: &Trace,
        ctx: &ShardContext,
        scratch: EngineScratch,
    ) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid SystemConfig: {reason}");
        }
        let slots = trace.ad_slots(config.ad_refresh);
        // Both views of the slot stream come from the one derivation
        // above; deriving it twice used to double trace-setup time. The
        // per-user view is a CSR (offsets + one flat array) over the
        // same stream: one allocation for the population, not one per
        // user.
        let slots_by_user = UserSlots::from_slots(&slots, trace.num_users());
        let engine = ClientEngine::with_scratch(
            config,
            &slots_by_user,
            trace.horizon(),
            trace.days(),
            ctx,
            scratch,
        );
        Self { engine, slots }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> SimReport {
        self.run_observed().0
    }

    /// [`Simulator::run`] that also returns the run's metric registry
    /// and hands back the engine's allocation set, so a worker can reuse
    /// it for its next shard.
    ///
    /// The registry is maintained unconditionally (its contents are pure
    /// functions of simulated events), so this returns exactly the same
    /// report as `run` — observability can be exported or dropped, never
    /// felt.
    pub fn run_observed(self) -> (SimReport, MetricRegistry, EngineScratch) {
        let Simulator { mut engine, slots } = self;
        engine.drive(&slots);
        engine.finalize_reclaim()
    }

    /// Runs `config` over `trace` as [`default_shards`]`(users)`
    /// independent user shards scheduled across `threads` OS threads, and
    /// merges the per-shard reports.
    ///
    /// The merged report is a deterministic function of `(config, trace)`
    /// alone: the shard count derives from the population size (clamped
    /// to it), each shard draws from its own `(seed, shard)` RNG stream
    /// and budget share, and reports merge in shard order. Changing
    /// `threads` changes only wall-clock time, never the result. Note
    /// that the *sharded* result differs from [`Simulator::run`] on the
    /// unsharded trace whenever more than one shard is used — replication
    /// candidates are confined to a shard — which is the price of
    /// embarrassingly parallel execution.
    pub fn run_parallel(config: &SystemConfig, trace: &Trace, threads: usize) -> SimReport {
        Self::run_sharded(config, trace, default_shards(trace.num_users()), threads)
    }

    /// [`Simulator::run_parallel`] with an explicit logical shard count.
    ///
    /// `n_shards` is clamped to the population size; `n_shards = 1`
    /// reproduces [`Simulator::run`] bit-for-bit (stream 0, full
    /// budgets, the whole trace). The report is independent of `threads`.
    pub fn run_sharded(
        config: &SystemConfig,
        trace: &Trace,
        n_shards: usize,
        threads: usize,
    ) -> SimReport {
        Self::run_sharded_with_hook(config, trace, n_shards, threads, |_| {})
    }

    /// [`Simulator::run_sharded`] with a per-shard hook, called with the
    /// shard index on the worker thread immediately before that shard
    /// simulates.
    ///
    /// This is a scheduling-perturbation seam for the determinism tests:
    /// a hook that stalls one shard forces every completion interleaving
    /// the work-stealing loop can produce, and the merged report must not
    /// notice. The hook cannot observe or influence shard semantics.
    pub fn run_sharded_with_hook(
        config: &SystemConfig,
        trace: &Trace,
        n_shards: usize,
        threads: usize,
        shard_hook: impl Fn(usize) + Sync,
    ) -> SimReport {
        let supply = ShardSupply::Materialized(trace, n_shards);
        Self::run_sharded_inner(config, supply, threads, shard_hook, false).0
    }

    /// [`Simulator::run_parallel`] plus the merged metric registry.
    ///
    /// The report is bit-identical to [`Simulator::run_parallel`] on the
    /// same inputs — observation adds wall-clock `phase.*` timers to the
    /// registry but never touches simulation state. The registry merges
    /// per-shard registries in shard order, mirroring the report merge.
    pub fn run_parallel_observed(
        config: &SystemConfig,
        trace: &Trace,
        threads: usize,
    ) -> (SimReport, MetricRegistry) {
        let supply = ShardSupply::Materialized(trace, default_shards(trace.num_users()));
        let (report, reg) = Self::run_sharded_inner(config, supply, threads, |_| {}, true);
        (report, reg.expect("observed run always yields a registry"))
    }

    /// Streaming, bounded-memory counterpart of
    /// [`Simulator::run_sharded`]: no global trace is ever materialized.
    ///
    /// `make_shard(i)` must return the sub-trace of shard `i` of an
    /// `n_shards`-way balanced split of a `num_users` population —
    /// normally `PopulationConfig::generate_shard(i, n_shards)`, which is
    /// byte-identical to `generate().split_users(n_shards)[i]`. Workers
    /// claim shard indices from the work-stealing queue, generate the
    /// shard's user range on the worker thread, simulate it, and drop the
    /// sub-trace before claiming the next index — so at most `threads`
    /// shards are resident at once and peak memory is
    /// O(users-per-shard × threads) instead of O(population).
    ///
    /// The merged report is **bit-identical** to
    /// [`Simulator::run_sharded`] on the materialized trace: shard
    /// boundaries come from the same [`shard_ranges`] formula, per-shard
    /// configs (RNG stream, budget share) depend only on the range sizes,
    /// and reports merge in shard order. As with the materialized path,
    /// `threads` never changes the result.
    pub fn run_streaming(
        config: &SystemConfig,
        num_users: u32,
        n_shards: usize,
        threads: usize,
        make_shard: impl Fn(usize) -> Trace + Sync,
    ) -> SimReport {
        let supply = ShardSupply::Streaming {
            num_users,
            n_shards,
            make: &make_shard,
        };
        Self::run_sharded_inner(config, supply, threads, |_| {}, false).0
    }

    /// [`Simulator::run_streaming`] plus the merged metric registry.
    ///
    /// Alongside the usual `phase.*` spans the registry carries
    /// `phase.trace_gen` (per-shard generation time) and, where the host
    /// exposes it, the `proc.peak_rss_kb` high-water gauge — both outside
    /// the deterministic snapshot, so observing the bound cannot perturb
    /// equivalence checks.
    pub fn run_streaming_observed(
        config: &SystemConfig,
        num_users: u32,
        n_shards: usize,
        threads: usize,
        make_shard: impl Fn(usize) -> Trace + Sync,
    ) -> (SimReport, MetricRegistry) {
        let supply = ShardSupply::Streaming {
            num_users,
            n_shards,
            make: &make_shard,
        };
        let (report, reg) = Self::run_sharded_inner(config, supply, threads, |_| {}, true);
        (report, reg.expect("observed run always yields a registry"))
    }

    fn run_sharded_inner(
        config: &SystemConfig,
        supply: ShardSupply<'_>,
        threads: usize,
        shard_hook: impl Fn(usize) + Sync,
        observed: bool,
    ) -> (SimReport, Option<MetricRegistry>) {
        let total_users = supply.num_users();
        // Both supplies cut the population along the same shard_ranges
        // boundaries, so everything derived from shard *sizes* (budget
        // shares, RNG streams, merge order) is identical between them —
        // the heart of the streaming/materialized equivalence.
        let ranges = shard_ranges(total_users, supply.n_shards());
        let n = ranges.len();
        let shards: Vec<Trace> = match supply {
            ShardSupply::Materialized(trace, n_shards) => {
                let split = trace.split_users(n_shards);
                debug_assert_eq!(split.len(), n);
                split
            }
            ShardSupply::Streaming { .. } => Vec::new(),
        };
        let threads = threads.clamp(1, n);
        let configs: Vec<SystemConfig> = shard_configs(config, total_users, &ranges);

        // Shard setup identical across shards is built once and shared;
        // see `ShardContext` for why this cannot change results.
        let ctx = ShardContext::new(config);

        // Work stealing: workers claim shard indices from an atomic
        // queue, so a worker that drains its cheap shards immediately
        // picks up outstanding ones instead of idling behind a static
        // stride assignment (shard costs are skewed by heavy-tailed
        // users). Each result lands in its shard's slot; the claim order
        // and thread count are invisible after the shard-ordered merge.
        let queue = WorkQueue::new(n);
        type ShardResult = (SimReport, MetricRegistry);
        let results: Vec<Mutex<Option<ShardResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One scratch set per worker, threaded through every
                    // shard this worker simulates: the queue ring and
                    // engine scratch vectors are allocated once per
                    // thread instead of once per shard.
                    let mut scratch = EngineScratch::default();
                    while let Some(i) = queue.claim() {
                        shard_hook(i);
                        // Streaming: materialize only this shard's user
                        // range, on this worker, for the lifetime of this
                        // iteration — the bounded-memory property.
                        let gen_start = observed.then(std::time::Instant::now);
                        let generated = match supply {
                            ShardSupply::Materialized(..) => None,
                            ShardSupply::Streaming { make, .. } => Some(make(i)),
                        };
                        let gen_ns = gen_start.map(|t0| t0.elapsed().as_nanos() as u64);
                        let shard_trace: &Trace = match &generated {
                            Some(t) => t,
                            None => &shards[i],
                        };
                        debug_assert_eq!(
                            shard_trace.num_users(),
                            ranges[i].end - ranges[i].start,
                            "shard source disagrees with shard_ranges on shard {i}"
                        );
                        // Wall-clock spans are recorded only in observed
                        // mode; they are Time metrics, which never feed
                        // report hashes or determinism checks.
                        let setup_start = observed.then(std::time::Instant::now);
                        let sim = Simulator::with_context_scratch(
                            configs[i].clone(),
                            shard_trace,
                            &ctx,
                            std::mem::take(&mut scratch),
                        );
                        if let Some(ns) = gen_ns.filter(|_| generated.is_some()) {
                            sim.engine.obs.add_time_ns("phase.trace_gen", ns);
                        }
                        if let Some(t0) = setup_start {
                            sim.engine
                                .obs
                                .add_time_ns("phase.shard_setup", t0.elapsed().as_nanos() as u64);
                        }
                        let loop_start = observed.then(std::time::Instant::now);
                        let (report, reg, reclaimed) = sim.run_observed();
                        scratch = reclaimed;
                        if let Some(t0) = loop_start {
                            reg.add_time_ns("phase.event_loop", t0.elapsed().as_nanos() as u64);
                        }
                        *results[i].lock().expect("shard slot poisoned") = Some((report, reg));
                    }
                });
            }
        });

        // Merge strictly in shard order: user ranges concatenate back to
        // the original indexing and the floating-point summation order is
        // fixed regardless of which thread finished first. The registry
        // merge follows the same shard order, so merged histograms and
        // counters are as deterministic as the report itself.
        let merge_start = observed.then(std::time::Instant::now);
        let mut merged = SimReport::empty();
        merged.reserve_users(total_users as usize);
        let mut merged_reg = observed.then(MetricRegistry::new);
        for slot in results {
            let (report, reg) = slot
                .into_inner()
                .expect("shard slot poisoned")
                .expect("every shard reports");
            merged.merge(&report);
            if let Some(m) = merged_reg.as_mut() {
                m.merge(&reg);
            }
        }
        if let (Some(m), Some(t0)) = (merged_reg.as_ref(), merge_start) {
            m.add_time_ns("phase.merge", t0.elapsed().as_nanos() as u64);
        }
        if let Some(m) = merged_reg.as_ref() {
            // The pipeline's memory high-water mark. A host fact, not a
            // simulation outcome: it lives in the proc.* namespace, which
            // deterministic snapshots exclude.
            adpf_obs::record_peak_rss(m);
        }
        (merged, merged_reg)
    }
}

/// Derives the per-shard configs of a sharded run over `ranges` (the
/// [`shard_ranges`] split of a `total_users` population): shard `i` gets
/// RNG stream `i` and the budget share proportional to its user count.
///
/// Shared with `adpf-serve`, whose sharded server must derive the exact
/// same configs for its per-shard engines to merge bit-identically with
/// the batch pipeline.
pub fn shard_configs(
    config: &SystemConfig,
    total_users: u32,
    ranges: &[std::ops::Range<u32>],
) -> Vec<SystemConfig> {
    ranges
        .iter()
        .enumerate()
        .map(|(i, range)| {
            let mut c = config.clone();
            c.rng_stream = i as u64;
            c.budget_fraction = if total_users == 0 {
                1.0
            } else {
                (range.end - range.start) as f64 / total_users as f64
            };
            // Scenario class/region assignment is keyed on the *global*
            // user id, so each shard must know where its local ids start.
            c.scenario.user_offset = range.start;
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannerKind;
    use adpf_desim::SimDuration;
    use adpf_prediction::PredictorKind;
    use adpf_traces::PopulationConfig;

    fn trace() -> Trace {
        PopulationConfig::small_test(42).generate()
    }

    #[test]
    fn realtime_mode_fetches_every_slot() {
        let t = trace();
        let r = Simulator::new(SystemConfig::realtime(1), &t).run();
        assert_eq!(r.slots, r.realtime_fetches);
        assert_eq!(r.cache_hits, 0);
        assert_eq!(r.syncs, 0);
        assert_eq!(r.impressions + r.unfilled, r.slots);
        assert!(r.energy.total_j() > 0.0);
        assert_eq!(r.sla_violation_rate(), 0.0, "real-time never violates");
        assert_eq!(r.ledger.duplicates, 0);
    }

    #[test]
    fn prefetch_saves_energy_with_small_revenue_cost() {
        let t = trace();
        let rt = Simulator::new(SystemConfig::realtime(1), &t).run();
        let pf = Simulator::new(SystemConfig::prefetch_default(1), &t).run();
        // The paper's headline: >50% ad-energy reduction with negligible
        // revenue loss and SLA violation rate. The thresholds below leave
        // headroom for the short 7-day test trace (the full 28-day
        // populations predict better).
        let savings = pf.energy_savings_vs(&rt);
        assert!(
            savings > 0.45,
            "expected ~50% energy savings, got {:.1}% \nrt: {}\npf: {}",
            savings * 100.0,
            rt.summary(),
            pf.summary()
        );
        let loss = pf.revenue_loss_vs(&rt);
        assert!(
            loss < 0.05,
            "revenue loss should be negligible, got {:.1}%\nrt: {}\npf: {}",
            loss * 100.0,
            rt.summary(),
            pf.summary()
        );
        assert!(
            pf.cache_hit_rate() > 0.5,
            "hit rate {}",
            pf.cache_hit_rate()
        );
        assert!(
            pf.sla_violation_rate() < 0.08,
            "sla {}",
            pf.sla_violation_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let t = trace();
        let a = Simulator::new(SystemConfig::prefetch_default(9), &t).run();
        let b = Simulator::new(SystemConfig::prefetch_default(9), &t).run();
        assert_eq!(a, b);
    }

    #[test]
    fn overbooking_reduces_sla_violations_versus_single_copy() {
        let t = trace();
        let mut single = SystemConfig::prefetch_default(3);
        single.planner = PlannerKind::NoReplication;
        let mut greedy = SystemConfig::prefetch_default(3);
        greedy.planner = PlannerKind::Greedy;
        let rs = Simulator::new(single, &t).run();
        let rg = Simulator::new(greedy, &t).run();
        assert!(
            rg.sla_violation_rate() <= rs.sla_violation_rate(),
            "greedy {} vs single {}",
            rg.sla_violation_rate(),
            rs.sla_violation_rate()
        );
        assert!(rg.ledger.duplicates >= rs.ledger.duplicates);
    }

    #[test]
    fn oracle_predictor_outperforms_zero() {
        let t = trace();
        let mut oracle = SystemConfig::prefetch_default(5);
        oracle.predictor = PredictorKind::Oracle;
        let mut zero = SystemConfig::prefetch_default(5);
        zero.predictor = PredictorKind::Zero;
        let ro = Simulator::new(oracle, &t).run();
        let rz = Simulator::new(zero, &t).run();
        assert!(ro.cache_hit_rate() > rz.cache_hit_rate());
        // With a zero predictor nothing is pre-sold.
        assert_eq!(rz.ledger.sold, rz.realtime_fetches);
        assert_eq!(rz.cache_hits, 0);
    }

    #[test]
    fn without_fallback_misses_go_unfilled() {
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(7);
        cfg.realtime_fallback = false;
        let r = Simulator::new(cfg, &t).run();
        assert_eq!(r.realtime_fetches, 0);
        assert_eq!(r.impressions, r.cache_hits);
        assert!(r.unfilled > 0);
        assert_eq!(r.impressions + r.unfilled, r.slots);
    }

    #[test]
    fn accounting_identities_hold() {
        let t = trace();
        let r = Simulator::new(SystemConfig::prefetch_default(11), &t).run();
        let lt = r.ledger;
        assert_eq!(lt.billed + lt.expired, lt.sold, "every sold ad settles");
        assert!((lt.revenue + lt.refunded - lt.sold_value).abs() < 1e-9);
        assert!(r.impressions <= r.slots);
        assert!(r.cache_hits + r.realtime_fetches >= r.impressions);
    }

    #[test]
    fn sync_dropout_degrades_gracefully() {
        let t = trace();
        let healthy = Simulator::new(SystemConfig::prefetch_default(17), &t).run();
        let mut cfg = SystemConfig::prefetch_default(17);
        cfg.sync_dropout = 0.5;
        let flaky = Simulator::new(cfg, &t).run();
        assert!(flaky.syncs_dropped > 0, "faults must actually fire");
        // The system still settles every slot and every sold ad.
        assert_eq!(flaky.impressions + flaky.unfilled, flaky.slots);
        assert_eq!(
            flaky.ledger.billed + flaky.ledger.expired,
            flaky.ledger.sold
        );
        // Losing half the periodic syncs hurts but does not collapse the
        // system: piggybacked syncs carry the load.
        assert!(
            flaky.cache_hit_rate() > healthy.cache_hit_rate() * 0.5,
            "flaky {} vs healthy {}",
            flaky.cache_hit_rate(),
            healthy.cache_hit_rate()
        );
        assert!(flaky.sla_violation_rate() < 0.25);
    }

    #[test]
    fn single_shard_run_matches_sequential_run() {
        // One shard means stream 0, full budgets, and the whole trace:
        // the sharded path must reproduce `run()` bit-for-bit.
        let t = trace();
        let sequential = Simulator::new(SystemConfig::prefetch_default(9), &t).run();
        let sharded = Simulator::run_sharded(&SystemConfig::prefetch_default(9), &t, 1, 1);
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn sharded_report_is_independent_of_thread_count() {
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let one = Simulator::run_parallel(&cfg, &t, 1);
        let three = Simulator::run_parallel(&cfg, &t, 3);
        let eight = Simulator::run_parallel(&cfg, &t, 8);
        assert_eq!(one, three);
        assert_eq!(one, eight);
    }

    #[test]
    fn sharded_run_covers_the_whole_population() {
        let t = trace();
        let cfg = SystemConfig::prefetch_default(4);
        let r = Simulator::run_parallel(&cfg, &t, 2);
        assert_eq!(r.users, t.num_users());
        assert_eq!(r.per_user_energy_j.len(), t.num_users() as usize);
        assert_eq!(r.days, t.days());
        assert_eq!(
            r.slots,
            t.ad_slots(cfg.ad_refresh).len() as u64,
            "every slot is simulated in exactly one shard"
        );
        assert_eq!(r.impressions + r.unfilled, r.slots);
        assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);
    }

    #[test]
    fn sharded_prefetch_still_saves_energy() {
        let t = trace();
        let rt = Simulator::run_parallel(&SystemConfig::realtime(1), &t, 2);
        let pf = Simulator::run_parallel(&SystemConfig::prefetch_default(1), &t, 2);
        assert!(
            pf.energy_savings_vs(&rt) > 0.40,
            "sharding must not destroy the paper's headline effect: {}",
            pf.summary()
        );
    }

    #[test]
    fn rng_streams_decorrelate_shard_randomness() {
        // Two configs differing only in stream draw different bid
        // randomness, while stream 0 reproduces the legacy derivation.
        let t = trace();
        let base = SystemConfig::prefetch_default(9);
        let mut streamed = base.clone();
        streamed.rng_stream = 1;
        let r0 = Simulator::new(base.clone(), &t).run();
        let r0_again = Simulator::new(base, &t).run();
        let r1 = Simulator::new(streamed, &t).run();
        assert_eq!(r0, r0_again);
        assert_ne!(
            r0.ledger.revenue, r1.ledger.revenue,
            "distinct streams should produce distinct auction outcomes"
        );
    }

    #[test]
    fn netem_disabled_runs_leave_all_netem_counters_zero() {
        let t = trace();
        let r = Simulator::new(SystemConfig::prefetch_default(1), &t).run();
        assert_eq!(r.netem, crate::report::NetemCounters::default());
        assert!(!r.summary().contains("netem"));
    }

    #[test]
    fn netem_flaky_link_fails_syncs_and_retries_recover_some() {
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(21);
        cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let r = Simulator::new(cfg, &t).run();
        assert!(r.netem.sync_failures > 0, "flaky link must bite: {r:?}");
        assert!(r.netem.retries_scheduled > 0);
        assert!(
            r.netem.retries_succeeded > 0,
            "some retries must get through: {:?}",
            r.netem
        );
        assert!(r.netem.retries_succeeded <= r.netem.retries_scheduled);
        // Failures never break the books.
        assert_eq!(r.impressions + r.unfilled, r.slots);
        assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);
        assert!(r.summary().contains("netem"));
    }

    #[test]
    fn netem_runs_are_deterministic() {
        let t = trace();
        let mk = || {
            let mut cfg = SystemConfig::prefetch_default(23);
            cfg.netem = adpf_netem::NetemConfig::degraded();
            cfg
        };
        let a = Simulator::new(mk(), &t).run();
        let b = Simulator::new(mk(), &t).run();
        assert_eq!(a, b);
    }

    #[test]
    fn netem_gates_realtime_mode_too() {
        let t = trace();
        let mut cfg = SystemConfig::realtime(25);
        cfg.netem = adpf_netem::NetemConfig::degraded();
        let r = Simulator::new(cfg, &t).run();
        assert!(r.netem.realtime_failures > 0);
        // A failed fetch leaves its slot unfilled, never half-billed.
        assert_eq!(r.impressions + r.unfilled, r.slots);
        assert!(r.unfilled >= r.netem.realtime_failures);
        assert_eq!(
            r.realtime_fetches + r.netem.realtime_failures,
            r.slots,
            "every slot either fetched or failed on the link"
        );
    }

    #[test]
    fn netem_outage_abandons_syncs_and_rescues_stranded_ads() {
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(27);
        // A half-population blackout two days in, long enough to outlive
        // the whole retry budget.
        cfg.netem = adpf_netem::NetemConfig::flaky_cellular().with_outage(
            48,
            SimDuration::from_hours(10),
            0.5,
        );
        let r = Simulator::new(cfg.clone(), &t).run();
        assert!(
            r.netem.syncs_abandoned > 0,
            "a 10h blackout must exhaust retry budgets: {:?}",
            r.netem
        );
        assert!(
            r.netem.ads_rescued > 0,
            "dark holders' ads must be re-replicated: {:?}",
            r.netem
        );
        assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);

        // The outage must hurt relative to plain flaky conditions.
        let mut flaky_cfg = cfg;
        flaky_cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let flaky = Simulator::new(flaky_cfg, &t).run();
        assert!(r.netem.sync_failures > flaky.netem.sync_failures);
    }

    #[test]
    #[should_panic(expected = "invalid SystemConfig")]
    fn invalid_config_panics() {
        let mut cfg = SystemConfig::prefetch_default(1);
        cfg.sla_target = 7.0;
        let _ = Simulator::new(cfg, &trace());
    }

    #[test]
    fn shard_derivation_keeps_historical_counts_for_small_populations() {
        // Every population at or below DEFAULT_SHARDS × USERS_PER_SHARD
        // users must derive exactly DEFAULT_SHARDS — that is what keeps
        // the report hashes recorded before derivation existed (smoke:
        // 40 users, e14: 300 users) byte-identical.
        for users in [0, 1, 40, 60, 300, 320] {
            assert_eq!(default_shards(users), DEFAULT_SHARDS, "{users} users");
        }
        // Production-scale populations grow past the floor…
        assert_eq!(default_shards(321), 9);
        assert_eq!(default_shards(600), 15);
        assert_eq!(default_shards(1_693), 43);
        // …up to the soft cap…
        assert_eq!(default_shards(100_000), MAX_SHARDS);
        // …which yields once it would breach the per-shard memory bound:
        // a million users derive enough shards to keep every shard at or
        // below MAX_USERS_PER_SHARD users, instead of 64 shards of
        // ~15,600.
        assert_eq!(default_shards(1_000_000), 489);
        for users in [200_000u32, 500_000, 1_000_000, 5_000_000] {
            let shards = default_shards(users);
            assert!(
                (users as usize).div_ceil(shards) <= MAX_USERS_PER_SHARD,
                "{users} users / {shards} shards breaches the memory bound"
            );
        }
    }

    #[test]
    fn prebuilt_context_matches_per_shard_construction() {
        // The hoisted ShardContext must be invisible: a simulator built
        // from a shared context equals one that rebuilt everything, for
        // every rng_stream a sharded run would use.
        let t = trace();
        let base = SystemConfig::prefetch_default(9);
        let ctx = ShardContext::new(&base);
        for stream in [0u64, 1, 7] {
            let mut cfg = base.clone();
            cfg.rng_stream = stream;
            let fresh = Simulator::new(cfg.clone(), &t).run();
            let shared =
                Simulator::with_context_scratch(cfg, &t, &ctx, EngineScratch::default()).run();
            assert_eq!(fresh, shared, "stream {stream} diverged");
        }
    }

    #[test]
    fn explicit_shard_counts_with_same_semantics_hash_identically() {
        // Shard counts beyond the population clamp back to it, so any
        // requested count that resolves to the same effective split must
        // produce the identical merged report (the documented semantics:
        // the effective count is what matters, not the requested one).
        let t = trace(); // 40 users.
        let cfg = SystemConfig::prefetch_default(9);
        let at_pop = Simulator::run_sharded(&cfg, &t, 40, 2);
        let clamped = Simulator::run_sharded(&cfg, &t, 1_000, 3);
        assert_eq!(at_pop, clamped);
    }

    #[test]
    fn stalled_shard_does_not_change_the_merged_report() {
        // Forcing shard 0 to finish last exercises the completion
        // orderings work stealing can produce; the shard-ordered merge
        // must hide them.
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let baseline = Simulator::run_sharded(&cfg, &t, DEFAULT_SHARDS, 1);
        let stalled = Simulator::run_sharded_with_hook(&cfg, &t, DEFAULT_SHARDS, 4, |shard| {
            if shard == 0 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        });
        assert_eq!(baseline, stalled);
    }

    #[test]
    fn observed_runs_match_plain_runs_at_every_thread_count() {
        // `--metrics` must be invisible to simulation outcomes: the
        // observed entry point returns the bit-identical report at any
        // thread count, and the deterministic part of the registry (the
        // simulated-event counts, with wall-clock timers dropped) is the
        // same no matter how the shards were scheduled.
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 8] {
            let plain = Simulator::run_parallel(&cfg, &t, threads);
            let (observed, reg) = Simulator::run_parallel_observed(&cfg, &t, threads);
            assert_eq!(
                plain, observed,
                "metrics changed the report at {threads} threads"
            );
            snapshots.push(reg.deterministic_snapshot());
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }

    #[test]
    fn registry_counters_agree_with_the_report() {
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let (r, reg) = Simulator::run_parallel_observed(&cfg, &t, 2);
        assert_eq!(reg.counter_value("sim.event.slot"), r.slots);
        assert_eq!(reg.counter_value("sim.slots"), r.slots);
        assert_eq!(reg.counter_value("sim.impressions"), r.impressions);
        assert_eq!(reg.counter_value("sim.syncs"), r.syncs);
        assert_eq!(
            reg.counter_value("sim.replicas_assigned"),
            r.replicas_assigned
        );
        // Gauges merge by max, so the merged value is the largest shard
        // population, not the total.
        let users = reg.gauge_value("sim.users");
        assert!(users > 0 && users <= u64::from(r.users));
        // Observed sharded runs carry the pipeline-phase timers.
        assert!(reg.time_ns("phase.event_loop") > 0);
        // The energy residency histograms cover every simulated user.
        let active = reg
            .histogram_snapshot("energy.user.active_ms")
            .expect("residency histogram published");
        assert_eq!(active.count(), u64::from(r.users));
    }

    #[test]
    fn unobserved_sequential_run_still_feeds_the_netem_report_field() {
        // `SimReport::netem` is derived from the always-on registry, so
        // the plain `run()` path (no metrics requested) must still
        // produce populated counters under a degraded network.
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(17);
        cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let r = Simulator::new(cfg, &t).run();
        assert!(
            r.netem.sync_failures > 0,
            "degraded network should fail some syncs"
        );
    }
}
