//! The end-to-end discrete-event simulation.
//!
//! Since the serving split, the per-client decision logic lives in
//! [`crate::engine::ClientEngine`]; this module keeps what is specific
//! to *batch replay*: the slot stream pulled from a trace, the shard
//! derivation and work-stealing scheduler ([`Simulator::run_shards`]),
//! and the shard-ordered merge. Each shard builds its own engine, event
//! queue and scratch buffers included, and drops it once its report is
//! taken; a worker hands only its bid sampler from shard to shard. The
//! batch [`Simulator`] is now one client of the engine — the online
//! server in `adpf-serve` is the other — and both produce bit-identical
//! reports for the same `(config, slot stream)`.

use std::sync::Mutex;
use std::time::Instant;

use adpf_auction::{BidSampler, Campaign, CampaignCatalog, CampaignType};
use adpf_desim::SimDuration;
use adpf_obs::MetricRegistry;
use adpf_prediction::PredictorKind;
use adpf_traces::{shard_ranges, Trace, UserSlots};

use crate::config::SystemConfig;
use crate::engine::ClientEngine;
use crate::report::SimReport;
use adpf_desim::WorkQueue;

/// Minimum number of logical shards used by [`Simulator::run_trace`]
/// (the historical fixed shard count, kept as the floor so every
/// population of up to `DEFAULT_SHARDS × USERS_PER_SHARD` users keeps the
/// report hashes recorded before shard derivation existed).
///
/// The shard count is derived from the population size (then clamped to
/// it) rather than from the thread count: shards are the unit of
/// simulation semantics (candidate pools, RNG streams, budget shares)
/// while threads are only a scheduling choice, so the same trace and seed
/// produce bit-identical merged reports at any thread count.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// Preferred upper bound on derived shard counts. Caps per-shard setup
/// overhead (each shard builds its own exchange and client table) and
/// keeps the smallest shard large enough for replica candidate pools to
/// matter. It is a *soft* cap: once honoring it would put more than
/// [`MAX_USERS_PER_SHARD`] users in one shard, the count grows past it —
/// see [`default_shards`].
pub(crate) const MAX_SHARDS: usize = 64;

/// Target users per shard when deriving the shard count. At the floor of
/// [`DEFAULT_SHARDS`] shards this keeps every population up to 320 users
/// — all test and quick-bench populations — at exactly the historical 8
/// shards (hash-stable), while production-scale populations get enough
/// shards that an 8-thread run is not starved for work (the paper's
/// 1,693-user iPhone population derives 43).
pub(crate) const USERS_PER_SHARD: usize = 40;

/// Hard ceiling on users per derived shard. A shard is the streaming
/// pipeline's unit of residency — its sub-trace and client table are
/// alive at once, its slot stream only as its open sessions — so this
/// constant *is* the peak-memory bound of a streaming run:
/// O(`MAX_USERS_PER_SHARD` × threads) users resident, regardless of
/// population size. A million-user run derives ~489 shards of ≤2,048
/// users instead of being stranded at [`MAX_SHARDS`] shards of ~15,600.
pub(crate) const MAX_USERS_PER_SHARD: usize = 2_048;

/// Number of logical shards [`Simulator::run_trace`] uses for a
/// population of `num_users`: one shard per `USERS_PER_SHARD` (40) users,
/// clamped to `[DEFAULT_SHARDS, cap]` where the cap is `MAX_SHARDS` (64)
/// raised, when necessary, to whatever keeps every shard at or below
/// `MAX_USERS_PER_SHARD` (2,048) users.
///
/// The derivation depends only on the population size — deliberately
/// never on thread count or host — so the merged report stays a
/// deterministic function of `(config, trace)` at every thread count
/// (the invariant the equivalence suites pin). Threads are still served:
/// any population big enough to want more parallelism than
/// `MAX_SHARDS` shards already derives at least 64 of them, which
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
    /// Whether each engine worker samples its engines' auctions ahead on
    /// a helper thread of its own ([`ShardContext::bid_sampler`]). A host
    /// fact, not a config field: on only where the run's engine workers
    /// leave a core idle, and invisible in every result.
    /// [`ShardContext::new`] leaves it off.
    pub(crate) sample_ahead: bool,
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
            sample_ahead: false,
        }
    }

    /// [`ShardContext::new`] for a run of `workers` engine threads,
    /// sampling auctions ahead when they leave a core idle: the one gate
    /// of both drivers, `Simulator::run_shards` and `adpf-serve`.
    pub fn for_workers(config: &SystemConfig, workers: usize) -> Self {
        Self::new(config).sampling_ahead(leaves_a_core_idle(workers))
    }

    /// This context with sampling ahead forced `on` or off, whatever the
    /// host: how tests hash both paths on any core count.
    pub fn sampling_ahead(self, on: bool) -> Self {
        Self {
            sample_ahead: on,
            ..self
        }
    }

    /// A bid sampler for one engine worker, when this context samples
    /// ahead: the engines the worker builds register with it
    /// (`ClientEngine::sample_ahead_on`), and it adds one helper thread
    /// however many of them it serves. Drop it after the engines' last
    /// auction.
    pub fn bid_sampler(&self) -> Option<BidSampler> {
        self.sample_ahead.then(BidSampler::new)
    }
}

/// Whether `workers` busy threads leave at least one of this host's
/// cores idle.
///
/// Serve's router thread is not counted: it parses a line in ≈ 40 ns
/// while the worker spends ≈ 1.3 µs deciding it, so router plus one
/// worker keep a two-core host only ≈ 1.0 cores busy (`proc.cpu_util`
/// on `serve-firehose`), and the helper gets the rest.
fn leaves_a_core_idle(workers: usize) -> bool {
    std::thread::available_parallelism().is_ok_and(|cores| workers < cores.get())
}

/// One configured simulation over one trace: a [`ClientEngine`], which
/// owns the run's state and buffers, plus the trace whose slot stream
/// drives it.
///
/// Construction builds per-client state; [`Simulator::run`] consumes the
/// simulator, pulls the slot stream from the trace's sessions
/// ([`Trace::slots`]) and produces a [`SimReport`]. Runs are
/// deterministic: the same `(config, trace)` pair always yields the same
/// report.
pub struct Simulator<'a> {
    engine: ClientEngine,
    trace: &'a Trace,
    refresh: SimDuration,
    /// The helper [`Simulator::new`]'s engine samples ahead on, held until
    /// the run ends; sharded runs pass their worker's instead.
    _sampler: Option<BidSampler>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator running one engine on exactly `config` over
    /// `trace` — no shard derivation; it is what runs inside each shard.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails — configurations are built in
    /// code, so an invalid one is a programming error.
    pub fn new(config: SystemConfig, trace: &'a Trace) -> Self {
        let ctx = ShardContext::for_workers(&config, 1);
        let sampler = ctx.bid_sampler();
        let sim = Self::with_context(config, trace, &ctx, sampler.as_ref());
        Self {
            _sampler: sampler,
            ..sim
        }
    }

    /// [`Simulator::new`] against a prebuilt [`ShardContext`], its
    /// auctions sampled ahead on the worker's `sampler` if given.
    ///
    /// Sharded runs build the context once and construct every shard's
    /// simulator from it; because the context depends only on fields the
    /// shard configs share, this is bit-identical to `new` on each shard
    /// config.
    fn with_context(
        config: SystemConfig,
        trace: &'a Trace,
        ctx: &ShardContext,
        sampler: Option<&BidSampler>,
    ) -> Self {
        // The per-user view (a CSR over the slot stream) is read only by
        // the oracle (`PredictorKind::build`), the one reader that
        // collects the stream; every other predictor starts cold, as
        // serve's engines do, from an empty view.
        let oracle_slots = match config.predictor {
            PredictorKind::Oracle => trace.ad_slots(config.ad_refresh),
            _ => Vec::new(),
        };
        let slots_by_user = UserSlots::from_slots(&oracle_slots, trace.num_users());
        let refresh = config.ad_refresh;
        let mut engine =
            ClientEngine::new(config, &slots_by_user, trace.horizon(), trace.days(), ctx);
        if let Some(sampler) = sampler {
            engine.sample_ahead_on(sampler);
        }
        Self {
            engine,
            trace,
            refresh,
            _sampler: None,
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        self.engine.drive(self.trace.slots(self.refresh));
        self.engine.into_report()
    }

    /// [`Simulator::run_shards`] over the [`default_shards`]`(users)`-way
    /// [`Trace::split_users`] of `trace`. Shards are copied out of one
    /// [`Trace::shard_index`] by the worker that claims them, right
    /// before it simulates them, so the run never holds the whole split.
    /// The result depends on `(config, trace)` alone, never on `threads`;
    /// it differs from [`Simulator::run`] on the whole trace whenever
    /// there is more than one shard — replication candidates are confined
    /// to a shard, the price of embarrassingly parallel execution.
    pub fn run_trace(config: &SystemConfig, trace: &Trace, threads: usize) -> SimReport {
        let users = trace.num_users();
        let n_shards = default_shards(users);
        let index = trace.shard_index(n_shards);
        Self::run_shards(config, users, n_shards, threads, |i| index.shard(i))
    }

    /// The one shard scheduler: runs `config` over the [`shard_ranges`]
    /// split of `num_users` users into `n_shards` (clamped to the
    /// population) on `threads` OS threads, returning the merged report.
    ///
    /// `shard(i)` must return shard `i`'s sub-trace, e.g.
    /// `PopulationConfig::generate_shard(i, n_shards)`. Workers call it
    /// once per shard, right before simulating it, and drop the sub-trace
    /// when the shard finishes, so a generating source keeps memory at
    /// O(users-per-shard × threads); a stalling one is how tests perturb
    /// the completion order. Per-shard configs come from [`shard_configs`]
    /// and results merge in shard order ([`merge_shards`]), so neither
    /// `threads` nor the source can change the report. Its metrics
    /// always carry the `phase.{trace_gen, shard_setup, event_loop,
    /// merge}` timers and `proc.peak_rss_kb`, outside their deterministic
    /// snapshot and outside the report's hash and `==`. When the workers leave a core of the host idle, each
    /// worker samples its engines' auctions ahead on it, on one helper
    /// thread ([`ShardContext::bid_sampler`]), which is invisible in the
    /// report.
    pub fn run_shards(
        config: &SystemConfig,
        num_users: u32,
        n_shards: usize,
        threads: usize,
        shard: impl Fn(usize) -> Trace + Sync,
    ) -> SimReport {
        let ranges = shard_ranges(num_users, n_shards);
        let threads = threads.clamp(1, ranges.len());
        // Shard setup identical across shards is built once and shared;
        // see `ShardContext` for why this cannot change results.
        let ctx = ShardContext::for_workers(config, threads);
        Self::schedule(config, &ctx, num_users, &ranges, threads, shard)
    }

    /// [`Simulator::run_shards`] against a prebuilt context, over
    /// `ranges` on exactly `threads` workers.
    fn schedule(
        config: &SystemConfig,
        ctx: &ShardContext,
        num_users: u32,
        ranges: &[std::ops::Range<u32>],
        threads: usize,
        shard: impl Fn(usize) -> Trace + Sync,
    ) -> SimReport {
        let n = ranges.len();
        let configs = shard_configs(config, num_users, ranges);

        // Work stealing: workers claim shard indices from an atomic
        // queue, so a worker that drains its cheap shards immediately
        // picks up outstanding ones instead of idling behind a static
        // stride assignment (shard costs are skewed by heavy-tailed
        // users). Each result lands in its shard's slot; the claim order
        // and thread count are invisible after the shard-ordered merge.
        let queue = WorkQueue::new(n);
        let results: Vec<Mutex<Option<SimReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One bid sampler per worker, shared by every shard
                    // this worker simulates: one helper thread, not one
                    // per shard.
                    let sampler = ctx.bid_sampler();
                    while let Some(i) = queue.claim() {
                        let claimed = Instant::now();
                        let trace = shard(i);
                        let supplied = Instant::now();
                        debug_assert_eq!(
                            trace.num_users(),
                            ranges[i].end - ranges[i].start,
                            "shard source disagrees with shard_ranges on shard {i}"
                        );
                        let sim = Simulator::with_context(
                            configs[i].clone(),
                            &trace,
                            ctx,
                            sampler.as_ref(),
                        );
                        let built = Instant::now();
                        let report = sim.run();
                        // Wall-clock spans, outside every hash. Registered
                        // only now: registering them before the run puts
                        // small allocations between the shard's tables
                        // (+1.8 MiB peak RSS on `stream-netem-paced`).
                        let reg = &report.metrics;
                        reg.add_time_ns("phase.trace_gen", (supplied - claimed).as_nanos() as u64);
                        reg.add_time_ns("phase.shard_setup", (built - supplied).as_nanos() as u64);
                        reg.add_time_ns("phase.event_loop", built.elapsed().as_nanos() as u64);
                        *results[i].lock().expect("shard slot poisoned") = Some(report);
                    }
                });
            }
        });

        let merging = Instant::now();
        let report = merge_shards(num_users, results);
        let reg = &report.metrics;
        reg.add_time_ns("phase.merge", merging.elapsed().as_nanos() as u64);
        // The pipeline's memory high-water mark. A host fact, not a
        // simulation outcome: it lives in the proc.* namespace, which
        // deterministic snapshots exclude.
        adpf_obs::record_peak_rss(reg);
        report
    }

    /// Benchmark shim for [`Simulator::run_trace`]; deleted once `benchmark/` rebinds.
    pub fn run_parallel(config: &SystemConfig, trace: &Trace, threads: usize) -> SimReport {
        Self::run_trace(config, trace, threads)
    }

    /// Benchmark shim for [`Simulator::run_trace`], with a copy of the
    /// report's metrics beside it; deleted once `benchmark/` rebinds.
    pub fn run_parallel_observed(
        config: &SystemConfig,
        trace: &Trace,
        threads: usize,
    ) -> (SimReport, MetricRegistry) {
        let report = Self::run_trace(config, trace, threads);
        let metrics = report.metrics.clone();
        (report, metrics)
    }

    /// Benchmark shim for [`Simulator::run_shards`]; deleted once `benchmark/` rebinds.
    pub fn run_streaming(
        config: &SystemConfig,
        num_users: u32,
        n_shards: usize,
        threads: usize,
        make_shard: impl Fn(usize) -> Trace + Sync,
    ) -> SimReport {
        Self::run_shards(config, num_users, n_shards, threads, make_shard)
    }

    /// Benchmark shim for [`Simulator::run_shards`], with a copy of the
    /// report's metrics beside it; deleted once `benchmark/` rebinds.
    pub fn run_streaming_observed(
        config: &SystemConfig,
        num_users: u32,
        n_shards: usize,
        threads: usize,
        make_shard: impl Fn(usize) -> Trace + Sync,
    ) -> (SimReport, MetricRegistry) {
        let report = Self::run_shards(config, num_users, n_shards, threads, make_shard);
        let metrics = report.metrics.clone();
        (report, metrics)
    }
}

/// Merges per-shard reports strictly in shard order, so user ranges
/// concatenate back to the original indexing and the floating-point
/// summation order is fixed whichever thread finished first; their
/// registries merge in the same order. Shared with `adpf-serve`'s
/// sharded server.
pub fn merge_shards(num_users: u32, results: Vec<Mutex<Option<SimReport>>>) -> SimReport {
    let mut report = SimReport::empty();
    report.reserve_users(num_users as usize);
    for slot in results {
        let r = slot
            .into_inner()
            .expect("shard slot poisoned")
            .expect("every shard reports");
        report.merge(&r);
    }
    report
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
    use crate::scenario::{ScenarioPopulation, ScenarioSpec};
    use crate::PlannerKind;
    use adpf_desim::SimDuration;
    use adpf_obs::MetricSnapshot;
    use adpf_traces::PopulationConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn trace() -> Trace {
        PopulationConfig::small_test(42).generate()
    }

    /// [`Simulator::run_shards`] over clones of `split_users(n_shards)`.
    fn run_split(cfg: &SystemConfig, t: &Trace, n_shards: usize, threads: usize) -> SimReport {
        let split = t.split_users(n_shards);
        Simulator::run_shards(cfg, t.num_users(), n_shards, threads, |i| split[i].clone())
    }

    fn count(r: &SimReport, name: &str) -> u64 {
        r.metrics.counter_value(name)
    }

    #[test]
    fn realtime_mode_fetches_every_slot() {
        let t = trace();
        let r = Simulator::new(SystemConfig::realtime(1), &t).run();
        assert_eq!(r.slots(), r.realtime_fetches());
        assert_eq!(r.cache_hits(), 0);
        assert_eq!(r.syncs(), 0);
        assert_eq!(r.impressions() + r.unfilled(), r.slots());
        assert!(r.energy.total_j() > 0.0);
        assert_eq!(r.sla_violation_rate(), 0.0, "real-time never violates");
        assert_eq!(r.ledger.duplicates, 0);
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
        assert_eq!(rz.ledger.sold, rz.realtime_fetches());
        assert_eq!(rz.cache_hits(), 0);
    }

    #[test]
    fn accounting_identities_hold() {
        let t = trace();
        let r = Simulator::new(SystemConfig::prefetch_default(11), &t).run();
        let lt = r.ledger;
        assert_eq!(lt.billed + lt.expired, lt.sold, "every sold ad settles");
        assert!((lt.revenue + lt.refunded - lt.sold_value).abs() < 1e-9);
        assert!(r.impressions() <= r.slots());
        assert!(r.cache_hits() + r.realtime_fetches() >= r.impressions());
    }

    #[test]
    fn sync_dropout_degrades_gracefully() {
        let t = trace();
        let healthy = Simulator::new(SystemConfig::prefetch_default(17), &t).run();
        let mut cfg = SystemConfig::prefetch_default(17);
        cfg.sync_dropout = 0.5;
        let flaky = Simulator::new(cfg, &t).run();
        assert!(flaky.syncs_dropped() > 0, "faults must actually fire");
        // The system still settles every slot and every sold ad.
        assert_eq!(flaky.impressions() + flaky.unfilled(), flaky.slots());
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
        let sharded = run_split(&SystemConfig::prefetch_default(9), &t, 1, 1);
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn sharded_run_covers_the_whole_population() {
        let t = trace();
        let cfg = SystemConfig::prefetch_default(4);
        let r = Simulator::run_trace(&cfg, &t, 2);
        assert_eq!(r.users, t.num_users());
        assert_eq!(r.per_user_energy_j.len(), t.num_users() as usize);
        assert_eq!(r.days, t.days());
        assert_eq!(
            r.slots(),
            t.ad_slots(cfg.ad_refresh).len() as u64,
            "every slot is simulated in exactly one shard"
        );
        assert_eq!(r.impressions() + r.unfilled(), r.slots());
        assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);
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
        assert!(
            !r.summary().contains("netem"),
            "every hashed netem count is 0"
        );
    }

    #[test]
    fn netem_flaky_link_fails_syncs_and_retries_recover_some() {
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(21);
        cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let r = Simulator::new(cfg, &t).run();
        assert!(
            count(&r, "netem.sync_failures") > 0,
            "flaky link must bite: {r:?}"
        );
        assert!(count(&r, "netem.retries_scheduled") > 0);
        assert!(
            count(&r, "netem.retries_succeeded") > 0,
            "some retries must get through: {r:?}"
        );
        assert!(count(&r, "netem.retries_succeeded") <= count(&r, "netem.retries_scheduled"));
        // Failures never break the books.
        assert_eq!(r.impressions() + r.unfilled(), r.slots());
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
        assert!(count(&r, "netem.realtime_failures") > 0);
        // A failed fetch leaves its slot unfilled, never half-billed.
        assert_eq!(r.impressions() + r.unfilled(), r.slots());
        assert!(r.unfilled() >= count(&r, "netem.realtime_failures"));
        assert_eq!(
            r.realtime_fetches() + count(&r, "netem.realtime_failures"),
            r.slots(),
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
            count(&r, "netem.syncs_abandoned") > 0,
            "a 10h blackout must exhaust retry budgets: {r:?}"
        );
        assert!(
            count(&r, "overbooking.rescues") > 0,
            "dark holders' ads must be re-replicated: {r:?}"
        );
        assert_eq!(r.ledger.billed + r.ledger.expired, r.ledger.sold);

        // The outage must hurt relative to plain flaky conditions.
        let mut flaky_cfg = cfg;
        flaky_cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let flaky = Simulator::new(flaky_cfg, &t).run();
        assert!(count(&r, "netem.sync_failures") > count(&flaky, "netem.sync_failures"));
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
            let shared = Simulator::with_context(cfg, &t, &ctx, None).run();
            assert_eq!(fresh, shared, "stream {stream} diverged");
        }
    }

    #[test]
    fn ahead_sampling_keeps_the_smoke_goldens_on_and_off() {
        // The smoke, smoke-mixed and smoke-paced goldens of
        // `adpf_bench::baseline`, held with each worker's bid sampler
        // forced on and off at 1 and 2 workers: a host with one core
        // still hashes the path sampled ahead, and one with idle cores
        // the path without it. The paced run re-anchors its lanes at
        // pacing ticks and budget crossings and is served ahead all the
        // same.
        let pop = PopulationConfig::small_test(777);
        let mixed = ScenarioPopulation::new(pop.clone(), ScenarioSpec::mixed());
        let mut mixed_cfg = SystemConfig::prefetch_default(5);
        mixed.apply_to(&mut mixed_cfg);
        let mut paced_cfg = SystemConfig::prefetch_default(5);
        paced_cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        paced_cfg.marketplace = adpf_auction::MarketplaceConfig::paced();
        let runs = [
            (
                SystemConfig::prefetch_default(5),
                pop.generate(),
                0xba08_fcf9_274d_6de0,
            ),
            (mixed_cfg, mixed.generate(), 0xddb8_fd9f_23e2_7430),
            (paced_cfg, pop.generate(), 0x1466_5b69_73c3_9963),
        ];
        for (cfg, t, golden) in runs {
            let users = t.num_users();
            let ranges = shard_ranges(users, default_shards(users));
            let split = t.split_users(ranges.len());
            for sample_ahead in [false, true] {
                let ctx = ShardContext::new(&cfg).sampling_ahead(sample_ahead);
                for threads in [1, 2] {
                    let report = Simulator::schedule(&cfg, &ctx, users, &ranges, threads, |i| {
                        split[i].clone()
                    });
                    let reg = &report.metrics;
                    let at = format!("{golden:016x}, ahead {sample_ahead}, {threads} threads");
                    assert_eq!(report.stable_hash(), golden, "{at}");
                    let ahead = reg.counter_value("proc.auction.ahead_auctions");
                    let all = reg.counter_value("auction.auctions");
                    assert_eq!(ahead, if sample_ahead { all } else { 0 }, "{at}");
                    assert_eq!(reg.counter_value("proc.auction.ahead_fallbacks"), 0);
                }
            }
        }
    }

    #[test]
    fn ahead_sampling_needs_an_idle_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(!leaves_a_core_idle(cores));
        assert!(!leaves_a_core_idle(cores + 1));
        assert_eq!(leaves_a_core_idle(cores - 1), cores > 1);
        let cfg = SystemConfig::prefetch_default(1);
        let ctx = ShardContext::for_workers(&cfg, cores);
        assert!(
            ctx.bid_sampler().is_none(),
            "workers >= cores samples in place"
        );
        assert!(ShardContext::new(&cfg).bid_sampler().is_none());
        let idle = ShardContext::for_workers(&cfg, cores - 1);
        assert_eq!(idle.bid_sampler().is_some(), cores > 1);
    }

    #[test]
    fn explicit_shard_counts_with_same_semantics_hash_identically() {
        // Shard counts beyond the population clamp back to it, so any
        // requested count that resolves to the same effective split must
        // produce the identical merged report (the documented semantics:
        // the effective count is what matters, not the requested one).
        let t = trace(); // 40 users.
        let cfg = SystemConfig::prefetch_default(9);
        let at_pop = run_split(&cfg, &t, 40, 2);
        let clamped = run_split(&cfg, &t, 1_000, 3);
        assert_eq!(at_pop, clamped);
    }

    #[test]
    fn stalled_shard_does_not_change_the_merged_report() {
        // Forcing shard 0 to finish last exercises the completion
        // orderings work stealing can produce; the shard-ordered merge
        // must hide them. The source closure is the perturbation seam.
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let baseline = run_split(&cfg, &t, DEFAULT_SHARDS, 1);
        let split = t.split_users(DEFAULT_SHARDS);
        let stalled = Simulator::run_shards(&cfg, t.num_users(), DEFAULT_SHARDS, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            split[i].clone()
        });
        assert_eq!(baseline, stalled);
    }

    #[test]
    fn every_source_carries_its_host_facts_outside_the_deterministic_snapshot() {
        // A materialized trace moved shard by shard, clones of its split,
        // and per-shard generation are three sources for one scheduler
        // (that their reports and deterministic metrics agree at every
        // thread count is what `adpf_bench::baseline::check` holds every
        // row to). Every run carries the wall-clock phase timers and the
        // RSS gauge, outside the deterministic part of its registry.
        let pop = PopulationConfig::small_test(42);
        let t = pop.generate();
        let cfg = SystemConfig::prefetch_default(9);
        let n = default_shards(pop.num_users);
        let runs = [
            Simulator::run_trace(&cfg, &t, 2),
            run_split(&cfg, &t, n, 2),
            Simulator::run_shards(&cfg, pop.num_users, n, 2, |i| pop.generate_shard(i, n)),
        ];
        for report in &runs {
            let reg = &report.metrics;
            let all = reg.snapshot();
            let has = |name: &str| all.iter().any(|m| m.name == name);
            for phase in ["trace_gen", "shard_setup", "event_loop", "merge"] {
                assert!(has(&format!("phase.{phase}")), "phase.{phase} missing");
            }
            assert_eq!(
                has(adpf_obs::PEAK_RSS_METRIC),
                adpf_obs::peak_rss_kb().is_some()
            );
            let host = |m: &MetricSnapshot| {
                m.name.starts_with("phase.") || m.name.starts_with(adpf_obs::PROC_PREFIX)
            };
            let det = reg.deterministic_snapshot();
            assert!(!det.iter().any(host), "a host fact in the snapshot");
        }
    }

    #[test]
    fn the_source_is_called_exactly_once_per_shard() {
        // (users, shards, threads): 1/3/8 workers, more workers than
        // shards, and an empty population (one empty shard).
        let cfg = SystemConfig::prefetch_default(9);
        for (users, n_shards, threads) in [(40, 8, 1), (40, 8, 3), (40, 8, 8), (5, 3, 8), (0, 8, 4)]
        {
            let mut pop = PopulationConfig::small_test(42);
            pop.num_users = users;
            let n = shard_ranges(users, n_shards).len();
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let report = Simulator::run_shards(&cfg, users, n_shards, threads, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                pop.generate_shard(i, n_shards)
            });
            assert_eq!(report.users, users);
            let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(
                counts,
                vec![1; n],
                "{users} users, {n_shards} shards, {threads} threads"
            );
        }
    }

    #[test]
    fn the_report_reads_its_counts_from_its_registry() {
        let t = trace();
        let cfg = SystemConfig::prefetch_default(9);
        let r = Simulator::run_trace(&cfg, &t, 2);
        let reg = &r.metrics;
        // The benchmark counts slots by this name.
        assert_eq!(reg.counter_value("sim.event.slot"), r.slots());
        assert_eq!(
            reg.counter_value("overbooking.replicas_registered")
                + reg.counter_value("overbooking.rescues"),
            r.replicas_assigned()
        );
        // One counter per fact: the copies these once had are gone.
        for gone in ["sim.slots", "sim.replicas_assigned", "netem.ads_rescued"] {
            assert!(reg.snapshot().iter().all(|m| m.name != gone), "{gone}");
        }
        // Gauges merge by max, so the merged value is the largest shard
        // population, not the total.
        let users = reg.gauge_value("sim.users");
        assert!(users > 0 && users <= u64::from(r.users));
        // The energy residency histograms cover every simulated user.
        let active = reg
            .histogram_snapshot("energy.user.active_ms")
            .expect("residency histogram published");
        assert_eq!(active.count(), u64::from(r.users));
    }

    #[test]
    fn unobserved_sequential_run_still_feeds_the_netem_counts() {
        // The plain `run()` path keeps the always-on registry in its
        // report, so netem counts are there under a degraded network.
        let t = trace();
        let mut cfg = SystemConfig::prefetch_default(17);
        cfg.netem = adpf_netem::NetemConfig::flaky_cellular();
        let r = Simulator::new(cfg, &t).run();
        assert!(
            count(&r, "netem.sync_failures") > 0,
            "degraded network should fail some syncs"
        );
    }
}
