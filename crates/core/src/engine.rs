//! The per-client decision engine, extracted from the batch simulator.
//!
//! [`ClientEngine`] owns everything the ad server decides *per client*:
//! the columnar client state (`ClientTable`/`AdCache`), prediction,
//! overbooked replication, marketplace hooks, netem gating, and the
//! energy accounting — everything the old monolithic simulator owned
//! except the ad-slot stream itself. Slots are the engine's only
//! *external* events; syncs, retries, expiry sweeps, and pacing ticks
//! are *internal* events the engine schedules for itself on its own
//! [`EventQueue`].
//!
//! That split is what lets two very different drivers share one engine
//! bit for bit:
//!
//! - the batch [`Simulator`](crate::Simulator) pulls the time-sorted
//!   slot stream from its trace's sessions ([`ClientEngine::drive`]), and
//! - the online `adpf-serve` server feeds slots as they arrive over a
//!   socket or stdin, with no end-of-stream known in advance.
//!
//! Both follow the same driving rule, and it reproduces the historical
//! single-queue event order **exactly**:
//!
//! 1. before an external slot at time `t`, pop and dispatch, one at a
//!    time, the internal events scheduled strictly *before* `t`
//!    ([`drain_internal_before`]);
//! 2. handle the slot ([`on_slot`]);
//! 3. at end of stream, pop and dispatch all remaining internal events
//!    ([`drain_internal`]) and [`into_report`].
//!
//! Why this is exact: the old simulator seeded *all* slots into the
//! queue first (sequence numbers `0..S`), so at equal timestamps a slot
//! always popped before any internal event — seeded or rescheduled —
//! and equal-time slots popped in slot-stream index order. Slot
//! handlers never schedule internal events, and internal handlers only
//! schedule strictly-future internal events, so "internal strictly
//! before `t`, then the slot at `t`" is precisely the old pop order.
//! The committed smoke golden and `tests/serving.rs` pin this.
//!
//! [`drain_internal_before`]: ClientEngine::drain_internal_before
//! [`on_slot`]: ClientEngine::on_slot
//! [`drain_internal`]: ClientEngine::drain_internal
//! [`into_report`]: ClientEngine::into_report

use adpf_auction::{AdId, BidSampler, CampaignCatalog, Exchange, MarketplaceConfig, SlotOffer};
use adpf_desim::{EventQueue, InlineVec, SimDuration, SimTime};
use adpf_energy::{EnergyBreakdown, Radio};
use adpf_netem::NetworkModel;
use adpf_obs::{MetricId, MetricRegistry};
use adpf_overbooking::availability::{BurstyTail, ClientAvailability};
use adpf_overbooking::planner::PLAN_INLINE;
use adpf_overbooking::{AdBook, Record, Shown};
use adpf_traces::{AdSlot, AppId, UserId, UserSlots};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{CachedAd, ClientTable};
use crate::config::{DeliveryMode, SystemConfig};
use crate::report::{metric_names, SimReport};
use crate::scenario::ScenarioState;
use crate::sim::ShardContext;

/// Upper bound on ads sold at one sync, guarding against a pathological
/// predictor output flooding the exchange.
const MAX_SELL_PER_SYNC: u32 = 256;

/// Fixed protocol bytes per sync (each direction).
const SYNC_OVERHEAD_BYTES: u64 = 1024;

/// Finalizes `z` through the 64-bit mix used by splitmix64/murmur3.
///
/// Used to spread the shard's `rng_stream` index across the seed space.
/// Every operation maps zero to zero, so stream 0 leaves the master seed
/// untouched — the unsharded derivation stays bit-identical.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    z
}

/// Advances a rotating candidate cursor by one client, wrapping at the
/// population size `n`; `(cursor + 1) % n` without the division.
#[inline]
fn advance_cursor(cursor: &mut usize, n: usize) -> usize {
    *cursor += 1;
    if *cursor >= n {
        *cursor = 0;
    }
    *cursor
}

/// Pre-resolved ids for the counters the engine maintains on its hot
/// path. Resolving once at construction keeps every increment an array
/// index plus an integer add. All of these count simulated events, so
/// they are deterministic and safe to keep always on — which is what
/// lets [`SimReport`] read every count from the registry while
/// `--metrics` toggles only export.
struct SimIds {
    ev_slot: MetricId,
    ev_sync: MetricId,
    ev_retry: MetricId,
    ev_sweep: MetricId,
    ev_pacing: MetricId,
    pool_builds: MetricId,
    pool_scored: MetricId,
    pool_rescored: MetricId,
    netem_sync_failures: MetricId,
    netem_retries_scheduled: MetricId,
    netem_retries_succeeded: MetricId,
    netem_syncs_abandoned: MetricId,
    netem_realtime_failures: MetricId,
    netem_rescues_unplaced: MetricId,
}

impl SimIds {
    fn resolve(reg: &MetricRegistry) -> Self {
        SimIds {
            ev_slot: reg.counter(metric_names::SLOTS),
            ev_sync: reg.counter("sim.event.sync"),
            ev_retry: reg.counter("sim.event.retry"),
            ev_sweep: reg.counter("sim.event.expiry_sweep"),
            ev_pacing: reg.counter("sim.event.pacing"),
            pool_builds: reg.counter("sim.pool.builds"),
            pool_scored: reg.counter("sim.pool.candidates_scored"),
            pool_rescored: reg.counter("sim.pool.candidates_rescored"),
            netem_sync_failures: reg.counter(metric_names::NETEM_SYNC_FAILURES),
            netem_retries_scheduled: reg.counter(metric_names::NETEM_RETRIES_SCHEDULED),
            netem_retries_succeeded: reg.counter(metric_names::NETEM_RETRIES_SUCCEEDED),
            netem_syncs_abandoned: reg.counter(metric_names::NETEM_SYNCS_ABANDONED),
            netem_realtime_failures: reg.counter(metric_names::NETEM_REALTIME_FAILURES),
            netem_rescues_unplaced: reg.counter(metric_names::NETEM_RESCUES_UNPLACED),
        }
    }
}

/// The engine's internal event alphabet.
///
/// Ad slots are deliberately absent: they are *external* inputs, pushed
/// by whatever drives the engine ([`ClientEngine::on_slot`]). Every
/// variant here is scheduled by the engine itself, strictly into the
/// future — the invariant the driving rule relies on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EngineEvent {
    /// Client `c` performs its periodic sync.
    Sync(u32),
    /// Client `c` retries a failed sync; `attempt` counts round trips
    /// already burnt (netem only).
    Retry {
        /// Client index.
        c: u32,
        /// Round trips already burnt on this sync.
        attempt: u32,
    },
    /// Periodic server-side expiry sweep.
    ExpirySweep,
    /// Periodic pacing-controller update across all paced campaigns
    /// (reactive marketplace only).
    Pacing,
}

/// A [`ClientEngine`]'s internal event queue plus the buffers a sync,
/// a pool build, a sweep or a rescue fills and empties again, so the hot
/// path never allocates once they have grown. Built with the engine and
/// dropped with it.
#[derive(Default)]
pub(crate) struct EngineScratch {
    /// Internal (self-scheduled) events only; external slots never enter.
    queue: EventQueue<EngineEvent>,
    /// `pool_pos[j]` is client `j`'s index into `cands`, valid iff
    /// `pool_epoch[j] == ClientEngine::pool_build_id` — an O(1) handle
    /// that replaces the linear pool scan when a holder must be re-scored.
    pool_pos: Vec<u32>,
    pool_epoch: Vec<u64>,
    // Buffers kept across syncs so the hot path never allocates: a
    // sync drains the client's slot times and reports out of their slabs
    // into these.
    slot_times: Vec<SimTime>,
    reports: Vec<(AdId, SimTime)>,
    /// The current sync's replica-candidate pool (planner input).
    cands: Vec<ClientAvailability>,
    /// Each pool entry's running tail, aligned with `cands` — what
    /// re-scoring the entry at a deeper queue extends.
    tails: Vec<BurstyTail>,
    /// The rescue scan's due-ad list.
    due: Vec<(AdId, SimTime)>,
    /// The expiry sweep's closed records.
    expired: Vec<Record>,
    /// Cancellation ids drained from the book at a sync, without
    /// surrendering the book queue's allocation.
    cancel: Vec<u64>,
}

/// Placement state shared by the ads sold at one sync; lives on the
/// sync's stack, so nothing has to be versioned or reset.
#[derive(Default)]
struct SyncPlacement {
    /// The origin's running tail, set at the first sale.
    origin: Option<BurstyTail>,
    /// Whether `scratch.cands` holds this sync's candidate pool.
    pool_built: bool,
}

/// One client shard's decision core: per-client state machines,
/// prediction, overbooked replication, and marketplace hooks, driven by
/// external ad-slot events plus a self-scheduled internal event queue.
///
/// Construction precomputes per-client state and builds the engine's own
/// event queue and scratch buffers, which live and die with it. Driving
/// it (via `ClientEngine::drive` or the `on_slot`/`drain_*` primitives)
/// and then [`ClientEngine::into_report`] produces a [`SimReport`]. Runs
/// are deterministic: the same `(config, slot stream)` pair always
/// yields the same report.
pub struct ClientEngine {
    config: SystemConfig,
    clients: ClientTable,
    horizon: SimTime,
    days: u32,
    exchange: Exchange,
    /// Every sold ad from sale to its first display or expiry.
    book: AdBook,
    /// Holder claims given back by [`ClientEngine::release_holders`], and
    /// the refunds handed to the exchange in the order handed: what the
    /// book is audited against at finalize.
    claims_released: u64,
    refunded: f64,
    /// The internal event queue and the per-sync buffers.
    scratch: EngineScratch,
    cand_cursor: usize,
    /// Randomness for failure injection (sync dropout).
    fault_rng: StdRng,
    /// Per-client network channels; `None` when netem is disabled, in
    /// which case every link query short-circuits to "ideal" without
    /// consuming randomness — the legacy code path, bit for bit.
    net: Option<NetworkModel>,
    /// Scenario-layer state, holding its own metric ids; `None` when the
    /// scenario is disabled, in which case every scenario query
    /// short-circuits to the legacy behavior without touching any
    /// counter — bit for bit.
    scen: Option<ScenarioState>,
    /// The run's metric registry. Always on: every value written during
    /// the run is a count of simulated events, merged shard-order like
    /// the report itself, so observability can never perturb outcomes.
    /// It becomes the report's `metrics` at finalize.
    obs: MetricRegistry,
    /// Pre-resolved ids into `obs` for the hot-path counters.
    mid: SimIds,
    /// Monotone id of the last candidate-pool build; versions the
    /// `scratch.pool_pos` handles.
    pool_build_id: u64,
    // Per-slot counts, published into `obs` once at finalize.
    impressions: u64,
    cache_hits: u64,
    realtime_fetches: u64,
    unfilled: u64,
    syncs: u64,
    syncs_skipped: u64,
    syncs_dropped: u64,
}

impl ClientEngine {
    /// Builds an engine for `config` over a population of
    /// `slots_by_user.num_users()` clients.
    ///
    /// `slots_by_user` is consulted only by predictors that need the
    /// future slot stream at construction (the oracle); every other
    /// predictor starts cold, so online drivers — which cannot know the
    /// future — pass an empty view and must reject the oracle.
    /// `horizon` and `days` are the trace bounds the batch pipeline
    /// reads off its `Trace` and an online server reads off its stream
    /// header.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails — configurations are built in
    /// code, so an invalid one is a programming error.
    pub fn new(
        config: SystemConfig,
        slots_by_user: &UserSlots,
        horizon: SimTime,
        days: u32,
        ctx: &ShardContext,
    ) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid SystemConfig: {reason}");
        }
        let num_users = slots_by_user.num_users();
        let mut scratch = EngineScratch::default();
        let queue = &mut scratch.queue;
        // Creating the registry allocates nothing; metrics allocate as
        // they register, the scenario's first.
        let obs = MetricRegistry::new();
        let scen = config
            .scenario
            .enabled
            .then(|| ScenarioState::new(&config, num_users, &obs));
        // Only a prefetching client syncs, and only a sync reads the
        // predictor: a realtime engine builds none.
        let predicts = config.mode == DeliveryMode::Prefetch;
        let mut clients = ClientTable::with_capacity(num_users, predicts);
        for u in 0..num_users {
            // Mixed populations bind each client the radio of its device
            // class; scenario-off keeps the config's single radio.
            let radio = match &scen {
                Some(s) => Radio::new(s.radio(u).clone()),
                None => Radio::new(config.radio.clone()),
            };
            let predictor = predicts.then(|| config.predictor.build(slots_by_user.user(u)));
            clients.push(radio, predictor);
        }

        // The campaign catalog is built from the master seed alone (it
        // lives in the shared context), so every shard of a sharded run
        // sees the same advertisers; only the per-run randomness (bid
        // sampling, fault injection) switches to the shard's stream, and
        // budgets shrink to the shard's population share so combined
        // spending can never exceed the global budgets.
        let stream_seed = config.seed ^ mix64(config.rng_stream);
        let mut exchange = Exchange::new(ctx.campaigns.clone(), config.seed);
        exchange.advance_discount = config.advance_discount;
        exchange.reseed_bids(stream_seed);
        exchange.scale_budgets(config.budget_fraction);
        if config.marketplace.enabled {
            // After scale_budgets: pacing schedules must cover the
            // shard's budget share, not the global budget, so the
            // shards' combined paced spend targets the global schedule.
            exchange.configure_marketplace(&config.marketplace, &ctx.campaign_types);
        }

        // Seeding order mirrors the historical single queue (slots came
        // first there; here they are external): staggered first syncs in
        // client order, then the first expiry sweep, then the first
        // pacing tick. FIFO tie-breaking preserves this relative order
        // at equal timestamps.
        if config.mode == DeliveryMode::Prefetch {
            // Stagger first syncs evenly across the interval so the server
            // load (and replica delivery opportunities) spread out.
            let interval_ms = config.prefetch_interval.as_millis();
            let n = clients.len().max(1) as u64;
            for i in 0..clients.len() {
                let offset = SimDuration::from_millis(interval_ms * (i as u64 % n) / n);
                clients.next_sync[i] = SimTime::ZERO + offset;
                queue.push(clients.next_sync[i], EngineEvent::Sync(i as u32));
            }
            queue.push(SimTime::from_hours(1), EngineEvent::ExpirySweep);
        }
        if exchange.has_pacers() {
            // Pacing applies in both delivery modes: the exchange paces
            // real-time and advance sales alike. Marketplace-off (and
            // static-marketplace) runs schedule no pacing events, so the
            // legacy event stream is untouched.
            queue.push(
                SimTime::ZERO + MarketplaceConfig::PACING_INTERVAL,
                EngineEvent::Pacing,
            );
        }

        let fault_rng = StdRng::seed_from_u64(stream_seed ^ 0xd20_0ff);
        let n_clients = clients.len();
        let net = config
            .netem
            .enabled
            .then(|| NetworkModel::new(config.netem.clone(), n_clients, stream_seed));
        let mid = SimIds::resolve(&obs);
        // Sized after the shard's own tables: ahead of them these
        // buffers fragmented the heap (+1 MiB in 9 on
        // `stream-netem-paced`, measured when they outlived the shard).
        scratch.pool_pos.resize(n_clients, 0);
        scratch.pool_epoch.resize(n_clients, 0);
        scratch.cands.reserve(config.candidate_pool);
        scratch.tails.reserve(config.candidate_pool);
        Self {
            config,
            pool_build_id: 0,
            clients,
            horizon,
            days,
            exchange,
            book: AdBook::new(),
            claims_released: 0,
            refunded: 0.0,
            scratch,
            cand_cursor: 0,
            fault_rng,
            net,
            scen,
            obs,
            mid,
            impressions: 0,
            cache_hits: 0,
            realtime_fetches: 0,
            unfilled: 0,
            syncs: 0,
            syncs_skipped: 0,
            syncs_dropped: 0,
        }
    }

    /// Lets this engine's exchange sample its auctions ahead on
    /// `sampler`, the one helper of the worker that drives this engine
    /// (see `ShardContext::bid_sampler`). Invisible in every result.
    pub fn sample_ahead_on(&mut self, sampler: &BidSampler) {
        self.exchange.sample_ahead_on(sampler);
    }

    /// Number of clients this engine owns.
    pub fn num_users(&self) -> usize {
        self.clients.len()
    }

    /// The trace horizon the engine was built against.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Drives the engine over a time-sorted slot stream (what
    /// [`Trace::slots`](adpf_traces::Trace::slots) yields) to exhaustion
    /// and leaves it ready to [`ClientEngine::into_report`]: the driving
    /// rule (drain-before, slot, drain-at-end) in one place.
    pub(crate) fn drive(&mut self, slots: impl IntoIterator<Item = AdSlot>) {
        for s in slots {
            self.drain_internal_before(s.time);
            self.on_slot(s.time, s.user, s.app);
        }
        self.drain_internal();
    }

    /// Runs every internal event scheduled strictly before `t`, in
    /// `(time, seq)` order, one pop at a time. Call immediately before
    /// handing the engine an external slot at `t`. A handler may schedule
    /// an event that is itself due before `t`; the loop pops it in its
    /// turn.
    pub fn drain_internal_before(&mut self, t: SimTime) {
        while self.scratch.queue.peek_time().is_some_and(|nt| nt < t) {
            let (now, ev) = self.scratch.queue.pop().expect("peeked");
            self.dispatch(now, ev);
        }
    }

    /// Runs all remaining internal events (end of the external stream).
    pub fn drain_internal(&mut self) {
        while let Some((now, ev)) = self.scratch.queue.pop() {
            self.dispatch(now, ev);
        }
    }

    fn dispatch(&mut self, now: SimTime, event: EngineEvent) {
        match event {
            EngineEvent::Sync(c) => {
                self.obs.inc(self.mid.ev_sync, 1);
                self.on_sync(now, c)
            }
            EngineEvent::Retry { c, attempt } => {
                self.obs.inc(self.mid.ev_retry, 1);
                self.on_retry(now, c, attempt)
            }
            EngineEvent::ExpirySweep => {
                self.obs.inc(self.mid.ev_sweep, 1);
                self.on_expiry_sweep(now)
            }
            EngineEvent::Pacing => {
                self.obs.inc(self.mid.ev_pacing, 1);
                self.on_pacing(now)
            }
        }
    }

    /// Handles one external ad-slot event: client `user` renders a slot
    /// of app `app` at `now`. The caller must present slots in
    /// non-decreasing time order and call
    /// [`ClientEngine::drain_internal_before`]`(now)` first.
    ///
    /// One path for both delivery modes: a prefetching client shows a
    /// cached ad if it has one; otherwise the slot is fetched in real
    /// time through the cell ceiling and then the link. The radio must
    /// wake for that fetch anyway, so a prefetching client rides the
    /// same wakeup with a full sync — unless piggybacking is off or its
    /// data budget is spent, in which case the fetch goes alone (and
    /// still meters).
    pub fn on_slot(&mut self, now: SimTime, user: UserId, app: AppId) {
        self.obs.inc(self.mid.ev_slot, 1);
        let ci = user.0 as usize;
        let prefetch = self.config.mode == DeliveryMode::Prefetch;
        if prefetch {
            self.clients.slot_times.push(ci, now);
            if let Some(ad) =
                self.clients.cache[ci].take_displayable(now, self.config.replica_window)
            {
                self.clients.pending_reports.push(ci, (ad.id(), now));
                self.impressions += 1;
                self.cache_hits += 1;
                if let Some(s) = &self.scen {
                    s.record_cache_hit(&self.obs);
                }
                return;
            }
        }
        // Evaluated before the piggyback flag: a blocked sync is counted
        // whether or not it would have ridden along.
        let blocked = prefetch
            && self
                .scen
                .as_mut()
                .is_some_and(|s| s.prefetch_cap_blocks(ci, now, &self.obs));
        let piggyback = prefetch && !blocked && self.config.piggyback_on_fallback;
        let admitted = match self.scen.as_mut() {
            Some(s) => s.cell_admit(ci, now, &self.obs),
            None => Some(SimDuration::ZERO),
        };
        let Some(mut latency) = admitted else {
            self.unfilled += 1;
            return;
        };
        if let Some(net) = self.net.as_mut() {
            let v = net.attempt(ci, now);
            if !v.ok {
                // The slot is gone; there is no later moment to retry a
                // display into. The radio still pays for the timeout.
                self.obs.inc(self.mid.netem_realtime_failures, 1);
                self.unfilled += 1;
                self.clients.radio[ci].stall(now, v.latency);
                return;
            }
            // Any cell queueing delay rides the same stall (and latency
            // sample) as the link's round trip; zero on the legacy path.
            latency += v.latency;
        }
        let category = Self::app_category(app);
        if piggyback {
            self.sync_body(ci, now, Some(category), latency);
            return;
        }
        if !latency.is_zero() {
            self.clients.radio[ci].stall(now, latency);
        }
        self.transfer(ci, now, self.config.ad_bytes_down, self.config.ad_bytes_up);
        self.realtime_sale(ci, now, category, latency);
    }

    /// Moves `down` + `up` bytes over client `ci`'s radio at `now` and
    /// meters them against its data plan when the scenario layer is on.
    fn transfer(&mut self, ci: usize, now: SimTime, down: u64, up: u64) {
        self.clients.radio[ci].transfer(now, down, up);
        if let Some(s) = &mut self.scen {
            s.meter(ci, down, up, &self.obs);
        }
    }

    /// Maps an app to its marketplace category for contextual targeting.
    fn app_category(app: AppId) -> u8 {
        (app.0 % CampaignCatalog::NUM_CATEGORIES as u16) as u8
    }

    /// Auctions the slot being fetched in real time and bills it at once.
    /// `latency` is the link + queueing stall the user waited on top of
    /// the transfer, folded into the display-latency sample only.
    fn realtime_sale(&mut self, ci: usize, now: SimTime, category: u8, latency: SimDuration) {
        self.realtime_fetches += 1;
        let offer = SlotOffer::realtime(now, Some(category));
        let Some(sold) = self.exchange.run_auction(&offer) else {
            self.unfilled += 1;
            return;
        };
        self.book.bill_now(&sold);
        self.impressions += 1;
        if let Some(s) = &self.scen {
            s.record_fetch(ci, latency, &self.obs);
        }
    }

    fn on_sync(&mut self, now: SimTime, c: u32) {
        let ci = c as usize;
        // Failure injection: the device may be unreachable for this
        // periodic sync; everything pending simply waits for the next
        // opportunity.
        let dropped = self.config.sync_dropout > 0.0
            && self.fault_rng.gen::<f64>() < self.config.sync_dropout;
        if dropped {
            self.syncs_dropped += 1;
        } else if self
            .scen
            .as_mut()
            .is_some_and(|s| s.prefetch_cap_blocks(ci, now, &self.obs))
        {
            // Data-plan budget exhausted: skip this period's prefetch
            // sync entirely (no transfer, no selling). The counter was
            // bumped by the check; the next period resets the budget.
        } else {
            self.attempt_sync(ci, now, 0);
        }

        // Schedule the next periodic sync; one extra period past the
        // horizon flushes final reports.
        let next = now + self.config.prefetch_interval;
        if next <= self.horizon + self.config.prefetch_interval {
            self.clients.next_sync[ci] = next;
            self.scratch.queue.push(next, EngineEvent::Sync(c));
        }
    }

    /// Runs a sync through the network channel: a failed round trip costs
    /// a wasted radio wakeup and schedules a backoff retry; a successful
    /// one proceeds to [`ClientEngine::sync_body`] carrying the link's
    /// extra latency. `attempt` is the number of round trips already
    /// burnt on this sync (0 for the periodic attempt). With netem
    /// disabled this is exactly `sync_body` on an ideal link.
    fn attempt_sync(&mut self, ci: usize, now: SimTime, attempt: u32) {
        let Some(net) = self.net.as_mut() else {
            self.sync_body(ci, now, None, SimDuration::ZERO);
            return;
        };
        let v = net.attempt(ci, now);
        if v.ok {
            if attempt > 0 {
                self.obs.inc(self.mid.netem_retries_succeeded, 1);
            }
            self.sync_body(ci, now, None, v.latency);
            return;
        }
        // The handshake went out and nothing came back: the radio woke,
        // spent the uplink overhead plus the timeout, and got nothing —
        // the wasted-wakeup energy the tail model makes expensive.
        self.obs.inc(self.mid.netem_sync_failures, 1);
        self.transfer(ci, now, 0, SYNC_OVERHEAD_BYTES);
        self.clients.radio[ci].stall(now, v.latency);
        self.schedule_retry(ci, now, attempt);
    }

    /// Schedules the next backoff retry after a failed sync attempt, or
    /// gives up once the policy's retry budget is spent.
    fn schedule_retry(&mut self, ci: usize, now: SimTime, attempt: u32) {
        let Some(net) = self.net.as_mut() else { return };
        if attempt >= net.retry().max_retries {
            self.obs.inc(self.mid.netem_syncs_abandoned, 1);
            return;
        }
        let at = now + net.backoff(ci, attempt);
        // Same scheduling bound as periodic syncs: one interval past the
        // horizon still flushes reports, anything later is pointless.
        if at <= self.horizon + self.config.prefetch_interval {
            self.obs.inc(self.mid.netem_retries_scheduled, 1);
            self.clients.retry_pending[ci] = true;
            self.scratch.queue.push(
                at,
                EngineEvent::Retry {
                    c: ci as u32,
                    attempt: attempt + 1,
                },
            );
        }
    }

    fn on_retry(&mut self, now: SimTime, c: u32, attempt: u32) {
        let ci = c as usize;
        // A sync completed since this retry was scheduled (periodic or
        // piggybacked); the client has nothing left to retry.
        if !self.clients.retry_pending[ci] {
            return;
        }
        self.clients.retry_pending[ci] = false;
        self.attempt_sync(ci, now, attempt);
    }

    /// One client/server sync: report, observe, cancel, deliver, sell,
    /// transfer. With `rt_fetch = Some(category)` the sync also serves the
    /// current slot via a real-time auction, sharing the radio wakeup
    /// (piggybacking). `link_latency` is the channel's extra round-trip
    /// stall, charged only if the sync actually wakes the radio.
    fn sync_body(
        &mut self,
        ci: usize,
        now: SimTime,
        rt_fetch: Option<u8>,
        link_latency: SimDuration,
    ) {
        let c = ci as u32;
        // This sync got through, so any outstanding retry is obsolete.
        self.clients.retry_pending[ci] = false;

        // 1. Update the server-side demand model with the observed period.
        //    The client's slot times drain out of their slab into the
        //    scratch buffer, their nodes freed for the next interval.
        let slot_times = &mut self.scratch.slot_times;
        self.clients.slot_times.drain(ci, |t| slot_times.push(t));
        let last = self.clients.last_sync[ci];
        self.clients
            .predictor_mut(ci)
            .observe(last, now, &self.scratch.slot_times);
        self.scratch.slot_times.clear();
        self.clients.cache[ci].purge_expired(now);

        // 2. Sell the predicted slots of the next interval and place them.
        //    The sell margin scales how aggressively predictions convert
        //    into inventory; overbooking and cancellation contain the
        //    downside of overselling.
        let predicted = self
            .clients
            .predictor(ci)
            .predict(now, self.config.prefetch_interval);
        let have = self.clients.cache[ci].primary_count() as i64;
        let want = (predicted * self.config.sell_margin).round() as i64;
        let to_sell = (((want - have).max(0)) as u32).min(MAX_SELL_PER_SYNC);
        let mut delivered_primaries = 0u64;
        // All ads sold at this sync share one deadline (`now`, config,
        // and horizon are fixed for the duration), and therefore one
        // origin score and one replica-candidate pool. Each is evaluated
        // once, lazily, at the first sale that needs it; later sales
        // extend the running tails of the clients whose queue grew.
        let deadline = (now + self.config.deadline).min(self.horizon);
        let mut placement = SyncPlacement::default();
        for _ in 0..to_sell {
            // Don't sell display windows that extend beyond the trace.
            if deadline <= now {
                break;
            }
            let offer = SlotOffer::advance(now, deadline);
            let Some(sold) = self.exchange.run_auction(&offer) else {
                break; // Exchange demand exhausted.
            };
            let holders = self.place_ad(ci, now, deadline, &mut placement);
            self.book.sell(&sold, &holders);
            // The first holder in placement order is the primary copy; the
            // rest are insurance replicas that display only after the
            // holder's own primaries.
            for (rank, &h) in holders.iter().enumerate() {
                self.clients.queued[h as usize] += 1;
                let cached = CachedAd::new(sold.id, deadline, rank > 0);
                if h as usize == ci {
                    self.clients.cache[ci].insert(cached);
                    delivered_primaries += 1;
                } else {
                    self.clients.outbox.push(h as usize, cached);
                }
            }
            // Re-score the pool entries of the replica holders just
            // loaded: their queue depth grew, so their availability for
            // the *next* ad of this sync shrank.
            self.refresh_pool_probs(&holders);
        }

        // 3. Serve the current slot in real time if this sync rides a
        //    fallback fetch. The user waits for the fetch inside the
        //    sync: transfer time plus the link/queue stall.
        let mut rt_bytes = (0u64, 0u64);
        if let Some(category) = rt_fetch {
            rt_bytes = (self.config.ad_bytes_down, self.config.ad_bytes_up);
            self.realtime_sale(ci, now, category, link_latency);
        }

        // 4. Decide whether this sync transfers at all. Only things that
        //    must move now justify a radio wakeup: the fallback fetch and
        //    newly sold primaries. Replicas, cancellations, and impression
        //    reports are ride-along payload — except that reports force a
        //    transfer once the oldest has aged a full interval (they are
        //    billed by display timestamp, so bounded delay is safe within
        //    the expiry grace period).
        let reports_urgent = self
            .clients
            .pending_reports
            .first(ci)
            .map(|&(_, t)| now.saturating_since(t) >= self.config.prefetch_interval)
            .unwrap_or(false);
        let reports_pending = !self.clients.pending_reports.is_empty(ci);
        let transfer = rt_fetch.is_some()
            || delivered_primaries > 0
            || (reports_pending && (reports_urgent || !self.config.defer_report_syncs));
        if !transfer {
            self.syncs_skipped += 1;
            self.clients.last_sync[ci] = now;
            return;
        }

        // 5. The radio is waking up: apply queued cancellations, deliver
        //    outstanding replicas, and ship the impression reports. The
        //    cancellation, outbox and report queues drain in place, their
        //    nodes freed for the next push, and the scratch buffers keep
        //    their allocations across syncs.
        self.scratch.cancel.clear();
        self.book.drain_cancellations(c, &mut self.scratch.cancel);
        if !self.scratch.cancel.is_empty() {
            self.clients.cancel(ci, &self.scratch.cancel);
        }
        let mut delivered_replicas = 0u64;
        let cache = &mut self.clients.cache[ci];
        self.clients.outbox.drain(ci, |ad| {
            if ad.deadline() >= now {
                cache.insert(ad);
                delivered_replicas += 1;
            }
        });
        let report_count = self.settle_pending_reports(ci);

        // 6. Pay for the batched transfer.
        let delivered = delivered_primaries + delivered_replicas;
        let down = delivered * self.config.ad_bytes_down + SYNC_OVERHEAD_BYTES + rt_bytes.0;
        let up = report_count * self.config.ad_bytes_up + SYNC_OVERHEAD_BYTES + rt_bytes.1;
        self.transfer(ci, now, down, up);
        if !link_latency.is_zero() {
            // Degraded link: the round trip holds the radio active past
            // the payload time (queued behind the transfer just issued).
            self.clients.radio[ci].stall(now, link_latency);
        }
        self.syncs += 1;
        self.clients.last_sync[ci] = now;
    }

    /// Chooses the holders of an ad sold at client `origin`'s sync: the
    /// origin always keeps the primary copy (the ad was sold against *its*
    /// predicted demand); insurance replicas are added only when the
    /// origin's own display probability falls short of the SLA target.
    ///
    /// The replica set is sized to the *residual* risk: with origin
    /// probability `p`, the replicas must jointly succeed with probability
    /// `1 - (1 - target) / (1 - p)` for the whole set to meet `target`.
    /// Replica candidates are drawn from a rotating cursor (spreading
    /// placement load) and scored over the window in which they could
    /// actually display: from the later of their next sync and the opening
    /// of the replica window, to the deadline, discounted by the ads
    /// already queued on them.
    fn place_ad(
        &mut self,
        origin: usize,
        now: SimTime,
        deadline: SimTime,
        sync: &mut SyncPlacement,
    ) -> InlineVec<u32, { PLAN_INLINE + 1 }> {
        let tail = sync.origin.get_or_insert_with(|| {
            let lambda = self.clients.expected_rate(origin, now, deadline);
            let mean_session = self.clients.predictor(origin).mean_session_slots();
            BurstyTail::new(lambda, mean_session, self.config.availability_dispersion)
        });
        let p_origin = tail.prob(self.clients.queued[origin]);
        let mut holders: InlineVec<u32, { PLAN_INLINE + 1 }> = InlineVec::new();
        holders.push(origin as u32);
        if p_origin >= self.config.sla_target {
            return holders;
        }
        // Residual success probability required from the replicas.
        let residual_target = 1.0 - (1.0 - self.config.sla_target) / (1.0 - p_origin).max(1e-9);
        if residual_target <= 0.0 {
            return holders;
        }

        if !sync.pool_built {
            self.build_candidate_pool(origin, now, deadline);
            sync.pool_built = true;
        }
        let plan = self.config.planner.plan(
            &self.scratch.cands,
            residual_target,
            self.config.max_replicas.saturating_sub(1),
        );
        holders.extend_from_slice(&plan.clients);
        holders
    }

    /// Evaluates the replica-candidate pool for one selling sync: the
    /// next `candidate_pool - 1` clients under the rotating cursor, each
    /// scored over the window in which it could actually display. Fills
    /// `scratch.cands` (planner input) and the aligned `scratch.tails`
    /// (each entry's running tail, so a deeper queue mid-sync extends
    /// the sum instead of restarting it).
    ///
    /// One pass, and a candidate leaves it at the first test that proves
    /// it useless: it cannot receive the ad in time; it expects no slots
    /// in the window (three in four — a bursty user has no history in
    /// most hour-of-day cells of a replica window), known before any
    /// session arithmetic; or it scores zero all the same (a rate so
    /// small that the session rate underflows or its `exp` rounds to
    /// one). Zero-probability candidates never enter the pool. That is
    /// exact: every planner skips `prob <= 0.0` entries, and a
    /// probability only falls during a sync (queues only grow), so what
    /// is left out could never have been chosen.
    fn build_candidate_pool(&mut self, origin: usize, now: SimTime, deadline: SimTime) {
        self.scratch.cands.clear();
        self.scratch.tails.clear();
        self.pool_build_id += 1;
        self.obs.inc(self.mid.pool_builds, 1);
        let n = self.clients.len();
        if n <= 1 {
            return;
        }
        let want = (self.config.candidate_pool - 1).min(n - 1);
        let mut taken = 0;
        let mut scored = 0;
        // A replica can only display inside the final `replica_window`
        // of the ad's life, and only after the holder has received it at
        // a sync. Loop-invariant: hoisted out of the candidate scan.
        let window_open = deadline.saturating_sub(self.config.replica_window).max(now);
        let dispersion = self.config.availability_dispersion;
        while taken < want {
            let j = advance_cursor(&mut self.cand_cursor, n);
            if j == origin {
                continue;
            }
            taken += 1;
            let start = self.clients.next_sync[j].max(window_open);
            if start >= deadline {
                continue; // Cannot receive the ad in time.
            }
            scored += 1;
            let lambda = self.clients.expected_rate(j, start, deadline);
            if lambda <= 0.0 {
                continue;
            }
            let mean_session = self.clients.predictor(j).mean_session_slots();
            let mut tail = BurstyTail::new(lambda, mean_session, dispersion);
            let prob = tail.prob(self.clients.queued[j]);
            if prob <= 0.0 {
                continue;
            }
            // The client's O(1) handle into this build's pool.
            self.scratch.pool_pos[j] = self.scratch.cands.len() as u32;
            self.scratch.pool_epoch[j] = self.pool_build_id;
            self.scratch.cands.push(ClientAvailability {
                client: j as u32,
                prob,
            });
            self.scratch.tails.push(tail);
        }
        self.obs.inc(self.mid.pool_scored, scored);
    }

    /// Re-scores the pool entries of freshly chosen replica holders
    /// (their `queued` just grew): each entry's own running tail is
    /// extended to the new depth. Replica holders always come out of the
    /// current build's pool, so the `pool_pos`/`pool_epoch` handle
    /// resolves each one in O(1).
    fn refresh_pool_probs(&mut self, holders: &[u32]) {
        // holders[0] is the origin, which is never in the pool.
        for &h in holders.iter().skip(1) {
            if self.scratch.pool_epoch[h as usize] != self.pool_build_id {
                continue;
            }
            let pos = self.scratch.pool_pos[h as usize] as usize;
            debug_assert_eq!(self.scratch.cands[pos].client, h);
            self.scratch.cands[pos].prob =
                self.scratch.tails[pos].prob(self.clients.queued[h as usize]);
            self.obs.inc(self.mid.pool_rescored, 1);
        }
    }

    fn on_expiry_sweep(&mut self, now: SimTime) {
        // Bill by display timestamp: a displayed-but-unreported ad is not
        // a violation, so the sweep waits out the worst-case report delay
        // (one interval of deferral plus one interval to the next sync)
        // before declaring one.
        let grace = self.config.prefetch_interval.saturating_mul(2);
        self.expire(now.saturating_sub(grace));
        if self.net.is_some() {
            self.rescue_dark_ads(now);
        }
        let next = now + SimDuration::from_hours(1);
        if next <= self.horizon + self.config.deadline + grace {
            self.scratch.queue.push(next, EngineEvent::ExpirySweep);
        }
    }

    /// One pacing-controller update, rescheduling itself every
    /// `MarketplaceConfig::PACING_INTERVAL` until the trace horizon. Runs on
    /// the engine's event queue, so controller updates happen at
    /// deterministic simulated times interleaved with the auction
    /// stream — identical at any thread count.
    fn on_pacing(&mut self, now: SimTime) {
        self.exchange.pacing_tick(now, self.horizon);
        let next = now + MarketplaceConfig::PACING_INTERVAL;
        if next <= self.horizon {
            self.scratch.queue.push(next, EngineEvent::Pacing);
        }
    }

    /// Deadline rescue (netem only): ads due within the next prefetch
    /// interval whose holders have *all* gone dark get one extra replica
    /// on a reachable client that will sync before the deadline. Without
    /// this, a regional outage turns every ad it strands into an SLA
    /// violation even though connected clients could still display it.
    fn rescue_dark_ads(&mut self, now: SimTime) {
        let n = self.clients.len();
        if n == 0 {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        self.book
            .unrescued_due_before(now + self.config.prefetch_interval, &mut due);
        // Ascending ad-id order, which the rotating cursor depends on.
        for &(ad, deadline) in &due {
            if deadline <= now {
                continue; // Too late for any new holder to display it.
            }
            let Some(net) = self.net.as_mut() else { break };
            // Borrowing `book` beside `net`, `clients` and the cursor is a
            // set of disjoint field borrows; it ends before the rescue.
            let Some(holders) = self.book.holders(ad) else {
                continue;
            };
            // Reachability only consults the link trajectory (no failure
            // coin), so the scan cannot perturb later attempt outcomes.
            if holders.iter().any(|&h| net.reachable(h as usize, now)) {
                continue; // Some holder can still sync in time.
            }
            // Every holder is dark: scan from the rotating cursor for a
            // reachable client whose next sync lands before the deadline.
            let mut target = None;
            for _ in 0..self.config.candidate_pool.min(n) {
                let j = advance_cursor(&mut self.cand_cursor, n);
                if holders.contains(&(j as u32)) {
                    continue;
                }
                if self.clients.next_sync[j] < deadline && net.reachable(j, now) {
                    target = Some(j as u32);
                    break;
                }
            }
            match target {
                Some(t) if self.book.rescue_to(ad, t) => {
                    self.clients.queued[t as usize] += 1;
                    self.clients
                        .outbox
                        .push(t as usize, CachedAd::new(ad, deadline, true));
                }
                _ => self.obs.inc(self.mid.netem_rescues_unplaced, 1),
            }
        }
        self.scratch.due = due;
    }

    /// Expires every record due before `now`. An ad that expires was
    /// never shown, so each one is a wasted prefetch.
    fn expire(&mut self, now: SimTime) {
        let mut expired = std::mem::take(&mut self.scratch.expired);
        self.book.expire_due(now, &mut expired);
        for record in &expired {
            self.refund(record);
            if let Some(s) = &self.scen {
                s.record_wasted_ad(&self.obs);
            }
        }
        self.scratch.expired = expired;
    }

    /// Settles every report client `ci` still owes, in display order,
    /// draining its queue; returns how many.
    fn settle_pending_reports(&mut self, ci: usize) -> u64 {
        let mut reports = std::mem::take(&mut self.scratch.reports);
        self.clients.pending_reports.drain(ci, |r| reports.push(r));
        let n = reports.len() as u64;
        for (ad, t) in reports.drain(..) {
            self.settle_report(ci as u32, ad, t);
        }
        self.scratch.reports = reports;
        n
    }

    /// Books `client`'s report of displaying `ad` at `t`, releasing the
    /// holders of a record it closes and refunding one it expires.
    fn settle_report(&mut self, client: u32, ad: AdId, t: SimTime) {
        match self.book.report(ad, client, t) {
            Shown::Billed(record) => self.release_holders(&record),
            Shown::Expired(record) => self.refund(&record),
            Shown::Duplicate | Shown::Late | Shown::Unknown => {}
        }
    }

    /// Credits an expired ad's price back to its campaign and releases
    /// its holders.
    fn refund(&mut self, record: &Record) {
        self.exchange.refund(record.campaign, record.price);
        self.refunded += record.price;
        self.release_holders(record);
    }

    /// Shrinks the queue of every holder of a closed record's ad, which
    /// no longer waits on any of them: it was displayed, or it expired.
    fn release_holders(&mut self, record: &Record) {
        for &h in &record.holders {
            let q = &mut self.clients.queued[h as usize];
            *q = q.saturating_sub(1);
        }
        self.claims_released += record.holders.len() as u64;
    }

    /// Settles all outstanding state and produces the run's report, its
    /// metric registry inside. Call after the external stream ended and
    /// [`ClientEngine::drain_internal`] ran.
    pub fn into_report(mut self) -> SimReport {
        // Flush reports that never made it to a final sync (trace ended
        // first); without this, genuinely displayed ads would be
        // misclassified as SLA violations.
        for ci in 0..self.clients.len() {
            self.settle_pending_reports(ci);
        }
        // Settle everything still pending, then hold the book to what
        // the engine released and refunded.
        self.expire(self.horizon + self.config.deadline + SimDuration::from_millis(1));
        self.book
            .audit(&self.obs, self.claims_released, self.refunded);

        let mut energy = EnergyBreakdown::default();
        let mut per_user = Vec::with_capacity(self.clients.len());
        // Mixed populations flush at the longest class tail so no class
        // loses end-of-trace tail energy; scenario-off keeps the single
        // config radio (bit-identical legacy path).
        let tail = match &self.scen {
            Some(s) => s.longest_tail(),
            None => self.config.radio.tail_duration(),
        };
        let flush_at = self.horizon + tail;
        for radio in &mut self.clients.radio {
            let e = radio.finish(flush_at);
            per_user.push(e.total_j());
            e.publish_residency(&self.obs);
            energy.absorb(&e);
        }

        // Fold the domain-layer stats into the registry so one snapshot
        // covers the whole stack. All of these count simulated events, so
        // they stay deterministic regardless of whether metrics export is
        // requested.
        self.book.publish(&self.obs);
        self.exchange.publish(&self.obs);
        if let Some(net) = &self.net {
            net.publish(&self.obs);
        }
        use metric_names::*;
        self.obs.add(IMPRESSIONS, self.impressions);
        self.obs.add(CACHE_HITS, self.cache_hits);
        self.obs.add(REALTIME_FETCHES, self.realtime_fetches);
        self.obs.add(UNFILLED, self.unfilled);
        self.obs.add(SYNCS, self.syncs);
        self.obs.add(SYNCS_SKIPPED, self.syncs_skipped);
        self.obs.add(SYNCS_DROPPED, self.syncs_dropped);
        self.obs.gauge_max("sim.users", self.clients.len() as u64);

        let mut report = SimReport {
            config: self.config.describe(),
            users: self.clients.len() as u32,
            days: self.days,
            energy,
            per_user_energy_j: per_user,
            ledger: self.book.totals(),
            metrics: self.obs,
            ..SimReport::empty()
        };
        report.fill_shims();
        report
    }

    /// Benchmark shim for [`ClientEngine::into_report`], with a copy of
    /// the report's metrics beside it; deleted once `benchmark/` rebinds.
    pub fn finalize(self) -> (SimReport, MetricRegistry) {
        let report = self.into_report();
        let metrics = report.metrics.clone();
        (report, metrics)
    }
}

#[cfg(test)]
#[path = "placement_tests.rs"]
mod placement_tests;
