//! The sharded online server: per-client decision engines driven by an
//! external event feed.
//!
//! # Architecture
//!
//! The server reuses the batch pipeline's sharding machinery wholesale —
//! that is what makes its results bit-identical to the simulator's:
//!
//! - the population splits along [`shard_ranges`], the shard count
//!   defaults to [`default_shards`], per-shard configs come from
//!   [`shard_configs`], and the shared campaign catalog from one
//!   [`ShardContext`] — exactly the derivations `Simulator::run_trace`
//!   uses;
//! - each shard is one [`ClientEngine`], built cold (an empty
//!   [`UserSlots`] view: an online server cannot know the future, so the
//!   oracle predictor is rejected up front);
//! - where the workers leave a core idle, each worker samples its
//!   engines' auctions ahead on one helper thread
//!   ([`ShardContext::bid_sampler`]), as the batch pipeline's workers do;
//! - workers claim shard indices from the work-stealing [`WorkQueue`]
//!   to build engines, then own what they built: the ingest thread
//!   routes each event to its shard's owning worker, so one shard's
//!   events are always handled in arrival order by one thread — the
//!   determinism contract — while distinct shards proceed in parallel;
//! - the workers outlive the session: it takes them from an idle pool,
//!   starting threads only for the ones missing, hands each a job that
//!   owns an `Arc` of the session's shared state, and parks them again
//!   once every job has ended (see `pool`: a thread started per session
//!   swaps malloc arenas with the caller's threads). The router stays on
//!   the caller's thread, so the input needs no `Send`. A worker that
//!   dies closes its mailbox and, while building, arrives at the build
//!   gate as dead: either stops the router, which never waits for a dead
//!   worker, and the worker's panic resumes on the caller;
//! - at end of stream (EOF or the `shutdown` sentinel) every engine
//!   drains its remaining internal events, finalizes, and the reports
//!   merge **in shard order** through the batch pipeline's own
//!   [`merge_shards`].
//!
//! # Ingest in batches
//!
//! Requests move through the server the way the paper moves ads over
//! the radio: in batches, so the fixed cost of a hand-off is paid once
//! per batch instead of once per request.
//!
//! - **Framing.** The ingest thread takes whatever bytes `fill_buf`
//!   returns, and a [`Framer`] cuts complete lines out of that chunk in
//!   place — no per-line `String`; only a chunk's unterminated tail is
//!   copied, into a carry buffer capped at `MAX_LINE_BYTES`. The events
//!   of a chunk share the one time at which the chunk arrived, in
//!   nanoseconds since the session began, kept once per hand-off rather
//!   than once per event.
//! - **Hand-off.** Each worker has a bounded swap [`Mailbox`]. The
//!   ingest thread collects a chunk's events per worker and appends
//!   them at the end of the chunk (and every `FLUSH_EVENTS` inside a
//!   large one); it blocks while a mailbox already holds
//!   `MAILBOX_CAP` events, which is the server's backpressure. The
//!   worker swaps out everything pending at once, so batches are a few
//!   events under paced load and tens of thousands under saturation,
//!   with no timer and no allocation in steady state. While the ingest
//!   thread waits on one full mailbox it feeds nobody: head-of-line
//!   blocking, the price of a single in-order reader.
//! - **Decide.** The worker groups a batch by shard (a stable counting
//!   sort on the shard each event's user falls in) and runs each
//!   shard's events back to back. Shards share no mutable state and
//!   each still sees its own events in arrival order, so the report
//!   cannot tell; but one engine's clients, predictor tables,
//!   candidate pool and ledger now stay in cache for a whole run
//!   instead of being evicted by the other engines between any two
//!   requests.
//!
//! Decisions are answered in-line: an event is fully decided (cache
//! hit, fallback fetch, or unfilled — including any internal syncs due
//! before it) before the worker starts the next one. Arrival to decided
//! lands in the `serve.decision_latency_us` histogram for every event;
//! `serve.queue_wait_us` is the part of it spent before the worker
//! reached the event's shard run, `serve.batch_events` the size of each
//! mailbox take, and `serve.router_backpressure` counts the pushes that
//! had to wait for room.
//!
//! # Why a shard's sub-stream equals its batch sub-trace
//!
//! The batch shard simulator drives shard `i` with the slots of users
//! `range_i`, renumbered to `0..len` and time-sorted. Routing a global
//! time-sorted stream by user range and renumbering (`u - range.start`,
//! a monotone shift) yields exactly that subsequence in exactly that
//! order. So every per-shard engine sees the identical input either
//! way, and identical inputs + identical configs = identical reports.

use std::io::{BufRead, ErrorKind};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use adpf_core::{
    default_shards, merge_shards, shard_configs, ClientEngine, ShardContext, SimReport,
    SystemConfig,
};
use adpf_desim::{SimTime, WorkQueue};
use adpf_obs::MetricRegistry;
use adpf_prediction::PredictorKind;
use adpf_traces::{shard_ranges, AppId, UserId, UserSlots};

use crate::mailbox::Mailbox;
use crate::pool::{Pool, POOL};
use crate::protocol::{Framer, IngestError, Parsed, StreamHeader};

/// Name of the arrival-to-decision latency histogram (microseconds,
/// log-linear buckets, 4 steps per octave) recorded for every served
/// request.
pub const DECISION_LATENCY_METRIC: &str = "serve.decision_latency_us";
/// Histogram of the queueing share of that latency: chunk arrival to
/// the moment the worker starts on the event's shard run.
pub const QUEUE_WAIT_METRIC: &str = "serve.queue_wait_us";
/// Histogram of events per mailbox take.
pub const BATCH_EVENTS_METRIC: &str = "serve.batch_events";
/// Counter of mailbox pushes that found the mailbox full and waited.
pub const BACKPRESSURE_METRIC: &str = "serve.router_backpressure";

/// Events a worker's mailbox may hold before the ingest thread blocks.
/// A constant, not an option: it only has to be large enough that a
/// saturated worker's batches give each shard a run of thousands of
/// events — most of the batching gain. The memory it bounds is two
/// buffers per worker, the pending one and the batch the worker swapped
/// out, each of up to `MAILBOX_CAP + FLUSH_EVENTS` [`Routed`] items (the
/// events and one arrival mark per push) of 16 bytes: about 2.0 MiB a
/// worker.
const MAILBOX_CAP: usize = 65_536;
/// Inside one large chunk, hand a worker its events at least this often
/// so it is not idle while the rest of the chunk is parsed.
const FLUSH_EVENTS: usize = 1024;

/// How a [`serve`] run is configured.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Master system config; sharded per engine exactly like the batch
    /// pipeline shards it.
    pub config: SystemConfig,
    /// Worker threads (clamped to the shard count).
    pub threads: usize,
    /// Shard-count override; `None` derives [`default_shards`] from the
    /// stream header's population, matching `Simulator::run_trace`.
    pub shards: Option<usize>,
    /// How many rejected-line errors to keep verbatim for the caller
    /// (all rejections are *counted*; only a sample is retained).
    pub error_sample: usize,
}

impl ServeOptions {
    /// Serving defaults for `config`: batch-equivalent sharding, two
    /// workers, a 20-error sample.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            threads: 2,
            shards: None,
            error_sample: 20,
        }
    }
}

/// Everything a completed serve session produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The stream header the session was sized from.
    pub header: StreamHeader,
    /// Shard count actually used.
    pub shards: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// The final report, its shards' metrics merged inside;
    /// bit-identical to the batch simulator's on the same `(config, event
    /// stream)`.
    pub report: SimReport,
    /// The serving layer's own metrics (`serve.*`): the per-worker
    /// decision-latency, queue-wait and batch-size histograms, then the
    /// ingest counters. Host facts, kept out of the report.
    pub registry: MetricRegistry,
    /// Well-formed events decided.
    pub requests: u64,
    /// Lines rejected by the ingest parser.
    pub ingest_errors: u64,
    /// The first [`ServeOptions::error_sample`] rejections, verbatim.
    pub error_sample: Vec<IngestError>,
}

/// Unrecoverable serve failures. Rejected *lines* are not errors at
/// this level — they are counted and skipped; see
/// [`ServeOutcome::ingest_errors`].
#[derive(Debug)]
pub enum ServeError {
    /// Reading the input failed.
    Io(std::io::Error),
    /// The stream ended before a valid `#serve` header arrived; nothing
    /// can be sized without one. Carries the first line rejected on the
    /// way, if any (a malformed header, or one past `MAX_USERS`).
    MissingHeader(Option<IngestError>),
    /// The configuration cannot be served online (e.g. the oracle
    /// predictor, which needs the future slot stream at construction).
    Unsupported(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::MissingHeader(first) => {
                write!(
                    f,
                    "input ended before a `#serve,users=N,horizon_ms=H` header"
                )?;
                match first {
                    Some(e) => write!(f, "; first rejected: {e}"),
                    None => Ok(()),
                }
            }
            ServeError::Unsupported(reason) => write!(f, "unsupported serve config: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// What the router hands a worker, 16 bytes each. Every push to a
/// mailbox opens with the arrival time of the chunk its events came in,
/// which the latency histograms measure from; the events after it, up to
/// the next push's, share it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Routed {
    /// Nanoseconds from the session's epoch to the chunk's arrival.
    Arrived(u64),
    /// One event: the global user, whose shard and shard-local id the
    /// worker derives from the shard ranges.
    Slot {
        time: SimTime,
        user: UserId,
        app: AppId,
    },
}

// Two mailbox buffers of these per worker are the serve path's largest
// allocation after the engines; see `MAILBOX_CAP`.
const _: () = assert!(std::mem::size_of::<Routed>() == 16);

/// Nanoseconds from `epoch` to now.
fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The shard whose range holds `user`: the first range ending past it.
fn shard_of(ranges: &[Range<u32>], user: UserId) -> usize {
    ranges.partition_point(|r| r.end <= user.0)
}

/// Tallies rejected lines, keeping the first `cap` verbatim.
struct ErrorLog {
    count: u64,
    cap: usize,
    sample: Vec<IngestError>,
}

impl ErrorLog {
    fn push(&mut self, e: IngestError) {
        self.count += 1;
        if self.sample.len() < self.cap {
            self.sample.push(e);
        }
    }
}

/// Closes the mailboxes it holds when dropped, so that no exit of the
/// holder — a read error, a panic — leaves the other side waiting on a
/// mailbox forever and the session's join hung.
struct CloseOnDrop<'a>(&'a [Mailbox<Routed>]);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        for mailbox in self.0 {
            mailbox.close();
        }
    }
}

/// Where the router waits out engine construction. Every worker
/// arrives once its engines are built, or as dead if it dies first, so
/// the router never waits for a worker that will not come.
struct BuildGate {
    /// Workers still building, and whether one died doing it.
    state: Mutex<(usize, bool)>,
    arrived: Condvar,
}

impl BuildGate {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new((workers, false)),
            arrived: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        // One decrement and one flag: valid at every step, and a dying
        // worker arrives from a drop guard, during unwinding.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn arrive(&self, built: bool) {
        let mut s = self.lock();
        s.0 -= 1;
        s.1 |= !built;
        drop(s);
        self.arrived.notify_all();
    }

    /// Waits until every worker has arrived: `false` if one died
    /// building.
    fn wait(&self) -> bool {
        let mut s = self.lock();
        while s.0 > 0 {
            s = self.arrived.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        !s.1
    }
}

/// A worker's pass through the [`BuildGate`]: dropped before
/// [`Arrival::built`], it arrives as dead.
struct Arrival<'a>(Option<&'a BuildGate>);

impl Arrival<'_> {
    fn built(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.arrive(true);
        }
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.arrive(false);
        }
    }
}

/// What a session's router and workers share. Each worker's job owns an
/// `Arc` of it, so a kept worker borrows nothing from the caller.
struct Session {
    ranges: Vec<Range<u32>>,
    configs: Vec<SystemConfig>,
    ctx: ShardContext,
    horizon: SimTime,
    days: u32,
    /// Arrival times are kept as nanoseconds since this instant.
    epoch: Instant,
    /// Shard ownership: workers claim construction jobs from the
    /// work-stealing queue and keep what they build, so engine setup
    /// load-balances while event handling stays single-owner per shard.
    queue: WorkQueue,
    ownership: Vec<AtomicUsize>,
    /// The router passes once every engine is built and the ownership
    /// table is complete.
    gate: BuildGate,
    results: Vec<Mutex<Option<SimReport>>>,
    worker_regs: Vec<Mutex<Option<MetricRegistry>>>,
    mailboxes: Vec<Mailbox<Routed>>,
    fault: Option<Fault>,
}

/// What tests vary in a session besides its [`ServeOptions`].
#[derive(Clone, Copy)]
struct Hooks {
    /// Events a mailbox may hold before the router blocks: tests make
    /// it tiny to run the backpressure and multi-take paths on small
    /// streams.
    mailbox_cap: usize,
    /// Sampling ahead forced on or off (`Some`) instead of left to the
    /// host's idle cores (`None`), so tests hash both paths on any host.
    sample_ahead: Option<bool>,
    /// Where the session takes its workers: a test that counts the
    /// workers a session starts brings a pool of its own.
    pool: &'static Pool,
    /// A panic worker 0 raises, which must reach the caller.
    fault: Option<Fault>,
}

impl Hooks {
    const NONE: Hooks = Hooks {
        mailbox_cap: MAILBOX_CAP,
        sample_ahead: None,
        pool: &POOL,
        fault: None,
    };
}

/// Where worker 0 panics under [`Hooks::fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum Fault {
    /// Before it builds an engine: the router is waiting at the gate.
    Build,
    /// Past the gate, before it takes a batch.
    Decide,
}

/// Reads the next chunk of `input` and hands each record in it, with
/// the chunk's arrival time in nanoseconds since `epoch`, to `on_record`
/// until that breaks. Returns whether to go on: `false` at end of input
/// (after the final unterminated line, if any) or once `on_record`
/// broke — input after the record it broke on is left unread.
fn next_chunk<R: BufRead>(
    input: &mut R,
    framer: &mut Framer,
    epoch: Instant,
    mut on_record: impl FnMut(Parsed, u64) -> ControlFlow<()>,
) -> std::io::Result<bool> {
    let chunk = loop {
        match input.fill_buf() {
            Ok(chunk) => break chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let arrived = nanos_since(epoch);
    if chunk.is_empty() {
        if let Some(parsed) = framer.finish() {
            let _ = on_record(parsed, arrived);
        }
        return Ok(false);
    }
    let mut pos = 0;
    let mut more = true;
    while let Some(parsed) = framer.next_record(chunk, &mut pos) {
        if on_record(parsed, arrived).is_break() {
            more = false;
            break;
        }
    }
    input.consume(pos);
    Ok(more)
}

/// Stable counting sort of `batch`'s events by the shard of `ranges`
/// each event's user falls in. Fills `order` with the events' indices
/// in `batch` grouped by shard, arrival order kept within a group,
/// `ends[s]` with the end of shard `s`'s span in `order` (it starts
/// where shard `s - 1` ends), and `stamps` with the index and time of
/// each [`Routed::Arrived`] mark, in batch order.
fn group_by_shard(
    batch: &[Routed],
    ranges: &[Range<u32>],
    ends: &mut [usize],
    order: &mut Vec<u32>,
    stamps: &mut Vec<(u32, u64)>,
) {
    ends.fill(0);
    stamps.clear();
    for (i, m) in batch.iter().enumerate() {
        match *m {
            Routed::Slot { user, .. } => ends[shard_of(ranges, user)] += 1,
            Routed::Arrived(ns) => stamps.push((i as u32, ns)),
        }
    }
    let mut start = 0;
    for e in ends.iter_mut() {
        start += std::mem::replace(e, start);
    }
    order.clear();
    order.resize(start, 0);
    for (i, m) in batch.iter().enumerate() {
        if let Routed::Slot { user, .. } = *m {
            let at = &mut ends[shard_of(ranges, user)];
            order[*at] = i as u32;
            *at += 1;
        }
    }
}

/// Runs one serve session over `input` to completion (EOF or the
/// `shutdown` sentinel) and returns the final report plus the serving
/// layer's metrics.
///
/// The report is a deterministic function of `(config, event stream)`:
/// thread count, shard claiming order, chunk boundaries, batch sizes and
/// wall-clock timing are all invisible after the shard-ordered merge,
/// exactly as in the batch pipeline. Malformed input never panics and
/// never kills the session — see [`crate::protocol`] for the rejection
/// rules.
pub fn serve<R: BufRead>(opts: &ServeOptions, input: R) -> Result<ServeOutcome, ServeError> {
    serve_with(opts, input, Hooks::NONE)
}

/// [`serve`] with the [`Hooks`] tests vary.
fn serve_with<R: BufRead>(
    opts: &ServeOptions,
    mut input: R,
    hooks: Hooks,
) -> Result<ServeOutcome, ServeError> {
    if matches!(opts.config.predictor, PredictorKind::Oracle) {
        return Err(ServeError::Unsupported(
            "the oracle predictor needs the future slot stream at construction; \
             an online server cannot provide it"
                .into(),
        ));
    }
    // Every engine would panic building from an invalid config.
    opts.config.validate().map_err(ServeError::Unsupported)?;

    let epoch = Instant::now();
    let mut framer = Framer::new();
    let mut errors = ErrorLog {
        count: 0,
        cap: opts.error_sample,
        sample: Vec::new(),
    };

    // Phase 1: scan to the header. Anything rejected on the way (events
    // before the header, malformed headers) is counted like any other
    // bad line; only end-of-input without a header is fatal.
    let (mut header, mut first_rejected) = (None, None);
    while next_chunk(&mut input, &mut framer, epoch, |parsed, _| match parsed {
        Parsed::Header(h) => {
            header = Some(h);
            ControlFlow::Break(())
        }
        Parsed::Shutdown => ControlFlow::Break(()),
        Parsed::Rejected(e) => {
            first_rejected.get_or_insert_with(|| e.clone());
            errors.push(e);
            ControlFlow::Continue(())
        }
        Parsed::Event(_) | Parsed::Skip => ControlFlow::Continue(()),
    })? {}
    let header = header.ok_or(ServeError::MissingHeader(first_rejected))?;

    // Size the run exactly like the batch pipeline sizes it from a
    // trace: same shard boundaries, same per-shard configs, same shared
    // context. `days` replicates `Trace::days` on the header's horizon.
    let users = header.users;
    let want_shards = opts.shards.unwrap_or_else(|| default_shards(users));
    let ranges = shard_ranges(users, want_shards);
    let n = ranges.len();
    let threads = opts.threads.clamp(1, n);
    let ctx = ShardContext::for_workers(&opts.config, threads);
    let session = Arc::new(Session {
        configs: shard_configs(&opts.config, users, &ranges),
        ranges,
        ctx: match hooks.sample_ahead {
            Some(on) => ctx.sampling_ahead(on),
            None => ctx,
        },
        horizon: SimTime::from_millis(header.horizon_ms),
        days: header.horizon_ms.div_ceil(adpf_desim::time::MILLIS_PER_DAY) as u32,
        epoch,
        queue: WorkQueue::new(n),
        ownership: (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect(),
        gate: BuildGate::new(threads),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        worker_regs: (0..threads).map(|_| Mutex::new(None)).collect(),
        mailboxes: (0..threads)
            .map(|_| Mailbox::new(hooks.mailbox_cap))
            .collect(),
        fault: hooks.fault,
    });

    let crew = hooks.pool.crew(threads)?;
    let workers_started = crew.started();
    for w in 0..threads {
        let session = Arc::clone(&session);
        crew.run(w, move || work(&session, w));
    }
    let routed = route(&session, &mut input, &mut framer, &mut errors);
    if let Err(panic) = crew.join() {
        std::panic::resume_unwind(panic);
    }
    let requests = routed?;

    // Merge strictly in shard order — the batch pipeline's own merge,
    // which is what keeps the report hash equal at every thread count.
    // The wall-clock-flavored serving registries merge in worker order,
    // beside the report; they carry no deterministic metrics.
    let Session {
        results,
        worker_regs,
        mailboxes,
        ..
    } = Arc::into_inner(session).expect("every job has ended and dropped its share");
    let report = merge_shards(users, results);
    let mut registry = MetricRegistry::new();
    for wr in worker_regs {
        if let Some(reg) = wr.into_inner().expect("worker registry poisoned") {
            registry.merge(&reg);
        }
    }
    registry.add("serve.requests", requests);
    registry.add("serve.ingest_errors", errors.count);
    registry.add(
        BACKPRESSURE_METRIC,
        mailboxes.iter().map(Mailbox::blocked_pushes).sum(),
    );
    registry.add("serve.workers_started", workers_started as u64);
    registry.gauge_max("serve.shards", n as u64);
    registry.gauge_max("serve.threads", threads as u64);

    Ok(ServeOutcome {
        header,
        shards: n,
        threads,
        report,
        registry,
        requests,
        ingest_errors: errors.count,
        error_sample: errors.sample,
    })
}

/// Worker `w`'s job: build the shards it claims, decide the events
/// routed to it until its mailbox is closed and drained, then finalize.
fn work(s: &Session, w: usize) {
    let mailbox = &s.mailboxes[w];
    // A worker that dies closes its mailbox, so the router stops at its
    // next push instead of waiting for room.
    let _close = CloseOnDrop(std::slice::from_ref(mailbox));
    let mut arrival = Arrival(Some(&s.gate));
    if w == 0 && s.fault == Some(Fault::Build) {
        panic!("injected fault: worker 0 dies building");
    }
    // One helper samples ahead for every engine this worker owns,
    // however many it keeps alive.
    let sampler = s.ctx.bid_sampler();
    // Build phase: claim shard indices until the queue runs dry.
    // Engines start cold — the empty UserSlots view is bit-identical to
    // the populated one for every non-oracle predictor (nothing else
    // reads it).
    let mut engines: Vec<Option<ClientEngine>> = (0..s.ranges.len()).map(|_| None).collect();
    while let Some(i) = s.queue.claim() {
        let len = s.ranges[i].end - s.ranges[i].start;
        let cold = UserSlots::from_slots(&[], len);
        let mut engine = ClientEngine::new(s.configs[i].clone(), &cold, s.horizon, s.days, &s.ctx);
        if let Some(sampler) = &sampler {
            engine.sample_ahead_on(sampler);
        }
        engines[i] = Some(engine);
        s.ownership[i].store(w, Ordering::Release);
    }
    arrival.built();
    if w == 0 && s.fault == Some(Fault::Decide) {
        panic!("injected fault: worker 0 dies deciding");
    }

    // Decision phase: take everything pending, group it by shard, and
    // decide each shard's run in arrival order, each event in-line
    // before the next. Latency runs from the chunk's arrival to
    // decision-complete, so queueing delay under load is part of the
    // number — what an SLA would see; queue wait is that delay on its
    // own.
    let obs = MetricRegistry::new();
    let lat = obs.histogram(DECISION_LATENCY_METRIC);
    let wait = obs.histogram(QUEUE_WAIT_METRIC);
    let batch_events = obs.histogram(BATCH_EVENTS_METRIC);
    let mut batch = Vec::new();
    let mut order = Vec::new();
    let mut stamps = Vec::new();
    let mut ends = vec![0usize; s.ranges.len()];
    while mailbox.take(&mut batch) {
        group_by_shard(&batch, &s.ranges, &mut ends, &mut order, &mut stamps);
        obs.observe_id(batch_events, order.len() as u64);
        let mut from = 0;
        for ((engine, &to), range) in engines.iter_mut().zip(&ends).zip(&s.ranges) {
            let run = &order[from..to];
            from = to;
            if run.is_empty() {
                continue;
            }
            let engine = engine
                .as_mut()
                .expect("event routed to a worker that owns its shard");
            let started = nanos_since(s.epoch);
            // A run's events ascend in the batch, so its marks are met
            // in order: each event's is the last one before it (every
            // push, hence every batch, opens with one).
            let mut mark = 0;
            for &i in run {
                while stamps.get(mark + 1).is_some_and(|&(at, _)| at < i) {
                    mark += 1;
                }
                let arrived_ns = stamps[mark].1;
                let Routed::Slot { time, user, app } = batch[i as usize] else {
                    unreachable!("`order` holds only events");
                };
                let waited = started.saturating_sub(arrived_ns);
                obs.observe_id(wait, waited / 1_000);
                engine.drain_internal_before(time);
                engine.on_slot(time, UserId(user.0 - range.start), app);
                let decided = nanos_since(s.epoch).saturating_sub(arrived_ns);
                obs.observe_id(lat, decided / 1_000);
            }
        }
    }

    // Shutdown phase (mailbox closed and drained): drain the engines'
    // remaining internal events and finalize into the shard-indexed
    // slots the merge reads in order.
    for (i, slot) in engines.into_iter().enumerate() {
        if let Some(mut engine) = slot {
            engine.drain_internal();
            *s.results[i].lock().expect("shard slot poisoned") = Some(engine.into_report());
        }
    }
    *s.worker_regs[w].lock().expect("worker registry poisoned") = Some(obs);
}

/// The router, on the caller's thread: waits out engine construction,
/// then forwards each chunk's events to their shards' owners until the
/// input ends, and returns how many it routed. Pushes to one mailbox
/// keep arrival order, hence so does every shard. Whatever way it
/// returns, the mailboxes close, so every worker finalizes and ends.
fn route<R: BufRead>(
    s: &Session,
    input: &mut R,
    framer: &mut Framer,
    errors: &mut ErrorLog,
) -> Result<u64, ServeError> {
    let _close = CloseOnDrop(&s.mailboxes);
    let mut requests = 0u64;
    // Routing stops once a worker died: it broke the gate, or closed its
    // mailbox (only a worker's unwinding closes one while the router
    // lives). The session's join then resumes the worker's panic.
    if !s.gate.wait() {
        return Ok(requests);
    }
    let mut outbox: Vec<Vec<Routed>> = s.mailboxes.iter().map(|_| Vec::new()).collect();
    let delivered = |w: usize, events: &mut Vec<Routed>| s.mailboxes[w].push(events).is_ok();
    loop {
        let more = next_chunk(input, framer, s.epoch, |parsed, arrived_ns| {
            match parsed {
                Parsed::Event(e) => {
                    // The parser guarantees `user < users`, so some range
                    // holds the user.
                    let user = UserId(e.user);
                    let w = s.ownership[shard_of(&s.ranges, user)].load(Ordering::Acquire);
                    let events = &mut outbox[w];
                    if events.is_empty() {
                        events.push(Routed::Arrived(arrived_ns));
                    }
                    events.push(Routed::Slot {
                        time: SimTime::from_millis(e.time_ms),
                        user,
                        app: AppId(e.app),
                    });
                    requests += 1;
                    if events.len() > FLUSH_EVENTS && !delivered(w, events) {
                        return ControlFlow::Break(());
                    }
                }
                Parsed::Rejected(e) => errors.push(e),
                Parsed::Shutdown => return ControlFlow::Break(()),
                Parsed::Header(_) | Parsed::Skip => {}
            }
            ControlFlow::Continue(())
        })?;
        for (w, events) in outbox.iter_mut().enumerate() {
            if !events.is_empty() && !delivered(w, events) {
                return Ok(requests);
            }
        }
        if !more {
            return Ok(requests);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_events, MAX_LINE_BYTES};
    use adpf_core::Simulator;
    use adpf_traces::PopulationConfig;

    fn smoke_stream(seed: u64, cfg: &SystemConfig) -> Vec<u8> {
        let trace = PopulationConfig::small_test(seed).generate();
        let mut buf = Vec::new();
        write_events(&trace, cfg.ad_refresh, &mut buf).unwrap();
        buf
    }

    /// The batch simulator's report hash for `smoke_stream(777, cfg)`:
    /// what every session serving that stream must reproduce.
    fn batch_hash(cfg: &SystemConfig) -> u64 {
        let trace = PopulationConfig::small_test(777).generate();
        Simulator::run_trace(cfg, &trace, 2).stable_hash()
    }

    fn with_cap(mailbox_cap: usize) -> Hooks {
        Hooks {
            mailbox_cap,
            ..Hooks::NONE
        }
    }

    /// Delivers `data` one piece per `read`, cut at the given offsets.
    struct Pieces<'a> {
        data: &'a [u8],
        pos: usize,
        cuts: std::vec::IntoIter<usize>,
    }

    impl<'a> Pieces<'a> {
        fn new(data: &'a [u8], mut cuts: Vec<usize>) -> std::io::BufReader<Self> {
            cuts.sort_unstable();
            cuts.dedup();
            let cuts = cuts.into_iter();
            std::io::BufReader::new(Self { data, pos: 0, cuts })
        }
    }

    impl std::io::Read for Pieces<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let pos = self.pos;
            let cut = self.cuts.find(|&c| c > pos).unwrap_or(self.data.len());
            let n = (cut.min(self.data.len()) - pos).min(out.len());
            out[..n].copy_from_slice(&self.data[pos..pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// What a session must agree on however its bytes were delivered.
    fn fingerprint(out: &ServeOutcome) -> (u64, u64, u64, Vec<usize>) {
        let lines = out.error_sample.iter().map(|e| e.line).collect();
        (
            out.report.stable_hash(),
            out.requests,
            out.ingest_errors,
            lines,
        )
    }

    #[test]
    fn chunk_boundaries_threads_and_backpressure_are_invisible() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let cfg = SystemConfig::prefetch_default(5);
        let clean = String::from_utf8(smoke_stream(777, &cfg)).unwrap();
        // Every framing case in one stream: CRLF and LF endings, garbage,
        // a line that is not UTF-8, an overlong line, and no final `\n`.
        let mut stream = Vec::new();
        for (i, line) in clean.lines().enumerate() {
            stream.extend_from_slice(line.as_bytes());
            stream.extend_from_slice(if i % 3 == 0 { b"\r\n" } else { b"\n" });
            match i {
                10 => stream.extend_from_slice(b"slot,notatime,0,0\r\n\n"),
                200 => stream.extend_from_slice(b"slot,1,\xff\xfe,0\n"),
                3000 => {
                    stream.extend_from_slice(&vec![b'#'; 3 * MAX_LINE_BYTES]);
                    stream.push(b'\n');
                }
                _ => {}
            }
        }
        assert_eq!(stream.pop(), Some(b'\n'));

        let mut opts = ServeOptions::new(cfg.clone());
        let whole = serve(&opts, stream.as_slice()).unwrap();
        let expected = fingerprint(&whole);
        let reference = serve(&opts, clean.as_bytes()).unwrap();
        assert_eq!(whole.report, reference.report);
        assert_eq!(whole.requests, reference.requests);
        assert_eq!(expected.2, 3);
        let reasons: Vec<&str> = whole
            .error_sample
            .iter()
            .map(|e| e.reason.as_str())
            .collect();
        assert!(reasons[0].contains("time_ms"), "{reasons:?}");
        assert_eq!(reasons[1..], ["invalid UTF-8", "line too long"]);

        let every_byte: Vec<usize> = (0..stream.len()).collect();
        let mut rng = StdRng::seed_from_u64(13);
        let mut random_cuts = |mean: usize| -> Vec<usize> {
            let mut cuts = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                at += rng.gen_range(1..=2 * mean);
                cuts.push(at);
            }
            // Always split every CRLF between its two bytes as well.
            cuts.extend(
                stream
                    .windows(2)
                    .enumerate()
                    .filter(|(_, w)| w == b"\r\n")
                    .map(|(i, _)| i + 1),
            );
            cuts
        };
        let deliveries = [
            ("byte by byte", every_byte),
            ("mid-number cuts", random_cuts(5)),
            ("a few lines a piece", random_cuts(60)),
            ("mailbox-sized pieces", random_cuts(3000)),
        ];
        for threads in [1, 3, 8] {
            opts.threads = threads;
            for (name, cuts) in &deliveries {
                // A 5-event mailbox makes the router wait and the workers
                // take many times even on this small stream.
                for cap in [5, MAILBOX_CAP] {
                    let input = Pieces::new(&stream, cuts.clone());
                    let out = serve_with(&opts, input, with_cap(cap)).unwrap();
                    assert_eq!(
                        fingerprint(&out),
                        expected,
                        "{name}, {threads} threads, cap {cap}"
                    );
                    let batches = out
                        .registry
                        .histogram_snapshot(BATCH_EVENTS_METRIC)
                        .unwrap();
                    assert_eq!(batches.sum(), out.requests, "every event is in one take");
                }
            }
        }
    }

    #[test]
    fn with_room_for_one_event_every_push_is_its_own_take() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let out = serve_with(&ServeOptions::new(cfg), stream.as_slice(), with_cap(1)).unwrap();
        assert_eq!(out.report.stable_hash(), batch);
        // With room for one event, a push is admitted only into an empty
        // mailbox: every take is exactly one push, of FLUSH_EVENTS or a
        // chunk's remainder, and only a push can have had to wait.
        let batches = out
            .registry
            .histogram_snapshot(BATCH_EVENTS_METRIC)
            .unwrap();
        assert_eq!(batches.sum(), out.requests);
        assert_eq!(batches.max(), FLUSH_EVENTS as u64);
        assert!(batches.count() >= out.requests.div_ceil(FLUSH_EVENTS as u64));
        assert!(out.registry.counter_value(BACKPRESSURE_METRIC) <= batches.count());
        let waits = out.registry.histogram_snapshot(QUEUE_WAIT_METRIC).unwrap();
        assert_eq!(waits.count(), out.requests);
    }

    #[test]
    fn ahead_sampling_keeps_serve_equal_to_batch_on_and_off() {
        // Each worker's bid sampler forced on and off at 1 and 2 workers,
        // through the normal and the one-event mailbox: a one-core host
        // still hashes the path sampled ahead, a multi-core one the path
        // without it. Real-time mode runs one auction per slot.
        for cfg in [SystemConfig::prefetch_default(5), SystemConfig::realtime(5)] {
            let stream = smoke_stream(777, &cfg);
            let batch = batch_hash(&cfg);
            let mut opts = ServeOptions::new(cfg);
            for threads in [1, 2] {
                opts.threads = threads;
                for cap in [1, MAILBOX_CAP] {
                    for ahead in [false, true] {
                        let hooks = Hooks {
                            sample_ahead: Some(ahead),
                            ..with_cap(cap)
                        };
                        let out = serve_with(&opts, stream.as_slice(), hooks).unwrap();
                        let at = format!("{threads} threads, cap {cap}, ahead {ahead}");
                        assert_eq!(out.report.stable_hash(), batch, "{at}");
                        let reg = &out.report.metrics;
                        let served = reg.counter_value("proc.auction.ahead_auctions");
                        let all = reg.counter_value("auction.auctions");
                        assert!(all > 0);
                        assert_eq!(served, if ahead { all } else { 0 }, "{at}");
                        assert_eq!(reg.counter_value("proc.auction.ahead_fallbacks"), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn ahead_sampling_in_serve_needs_an_idle_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let mut opts = ServeOptions::new(cfg);
        // The router is not a worker: one worker leaves a core idle on
        // any multi-core host.
        for threads in [1, cores] {
            opts.threads = threads;
            let out = serve(&opts, stream.as_slice()).unwrap();
            let reg = &out.report.metrics;
            let served = reg.counter_value("proc.auction.ahead_auctions");
            if out.threads >= cores {
                assert_eq!(
                    served, 0,
                    "{} workers >= {cores} cores samples in place",
                    out.threads
                );
            } else {
                assert_eq!(served, reg.counter_value("auction.auctions"));
            }
        }
    }

    #[test]
    fn group_by_shard_is_a_stable_grouping() {
        // Shards of two users each, and an empty last one.
        let ranges = [0..2, 2..4, 4..6, 6..6];
        // Two pushes: events 5, 0, 4 then 3, 1, 5, each behind its mark.
        let slot = |i: u64, user: u32| Routed::Slot {
            time: SimTime::from_millis(i),
            user: UserId(user),
            app: AppId(0),
        };
        let batch = [
            Routed::Arrived(10),
            slot(0, 5),
            slot(1, 0),
            slot(2, 4),
            Routed::Arrived(20),
            slot(3, 3),
            slot(4, 1),
            slot(5, 5),
        ];
        let mut ends = vec![0; 4];
        let mut order = vec![7; 9];
        let mut stamps = vec![(9, 9)];
        group_by_shard(&batch, &ranges, &mut ends, &mut order, &mut stamps);
        assert_eq!(order, [2, 6, 5, 1, 3, 7]);
        assert_eq!(ends, [2, 3, 6, 6]);
        assert_eq!(stamps, [(0, 10), (4, 20)]);
    }

    /// Yields `data`, then fails every read with `kind`.
    struct ThenFails<'a>(&'a [u8], ErrorKind);

    impl std::io::Read for ThenFails<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(self.1.into());
            }
            let n = self.0.len().min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_mid_stream_ends_the_session_with_io_not_a_hang() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let half = &stream[..stream.len() / 2];
        for threads in [1, 3] {
            let mut opts = ServeOptions::new(cfg.clone());
            opts.threads = threads;
            let input = std::io::BufReader::new(ThenFails(half, ErrorKind::ConnectionReset));
            match serve_with(&opts, input, with_cap(5)) {
                Err(ServeError::Io(e)) => assert_eq!(e.kind(), ErrorKind::ConnectionReset),
                other => panic!("expected an I/O error, got {other:?}"),
            }
        }
        // Before the header it is the same error, not `MissingHeader`.
        let input = std::io::BufReader::new(ThenFails(b"# hello\n", ErrorKind::BrokenPipe));
        let err = serve(&ServeOptions::new(cfg), input).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
    }

    /// Fails every other read with `Interrupted`, which is not an error.
    struct Interrupting<'a>(&'a [u8], bool);

    impl std::io::Read for Interrupting<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = self.0.len().min(out.len()).min(100);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let input = std::io::BufReader::new(Interrupting(&stream, false));
        let out = serve(&ServeOptions::new(cfg), input).unwrap();
        assert_eq!(out.report.stable_hash(), batch);
    }

    #[test]
    fn thread_count_is_invisible_in_the_report() {
        let cfg = SystemConfig::prefetch_default(9);
        let stream = smoke_stream(41, &cfg);
        let mut hashes = Vec::new();
        for threads in [1, 3, 8] {
            let mut o = ServeOptions::new(cfg.clone());
            o.threads = threads;
            let out = serve(&o, stream.as_slice()).unwrap();
            assert_eq!(out.threads, threads.min(out.shards));
            hashes.push(out.report.stable_hash());
        }
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[1], hashes[2]);
    }

    #[test]
    fn rejected_lines_are_counted_not_fatal() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let clean = serve(&ServeOptions::new(cfg.clone()), stream.as_slice()).unwrap();
        // Corrupt the stream: garbage, truncation, and an out-of-range
        // user spliced between valid events.
        let text = String::from_utf8(stream).unwrap();
        let mut dirty = String::new();
        for (i, line) in text.lines().enumerate() {
            dirty.push_str(line);
            dirty.push('\n');
            if i == 10 {
                dirty.push_str("slot,notatime,0,0\nslot,1\nslot,0,999999,0\n\u{7}garbage\n");
            }
        }
        let out = serve(&ServeOptions::new(cfg), dirty.as_bytes()).unwrap();
        assert_eq!(out.ingest_errors, 4);
        assert_eq!(out.error_sample.len(), 4);
        assert!(out.error_sample.iter().all(|e| e.line > 0));
        // The valid events all got through: the report is unperturbed.
        assert_eq!(out.report, clean.report);
        assert_eq!(
            out.registry.counter_value("serve.ingest_errors"),
            4,
            "rejections surface in the obs namespace"
        );
    }

    #[test]
    fn shutdown_sentinel_finalizes_early() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let text = String::from_utf8(stream).unwrap();
        let mut cut = String::new();
        for (i, line) in text.lines().enumerate() {
            if i == 50 {
                cut.push_str("shutdown\n");
                cut.push_str("slot,0,0,0\n"); // Never read.
                break;
            }
            cut.push_str(line);
            cut.push('\n');
        }
        let out = serve(&ServeOptions::new(cfg), cut.as_bytes()).unwrap();
        // Line 0 is the header, lines 1..50 are events.
        assert_eq!(out.requests, 49);
        assert_eq!(
            out.ingest_errors, 0,
            "the rest of the chunk is not parsed: t=0 there would be out of order"
        );
        assert!(out.report.syncs() > 0, "internal events still drained");
    }

    #[test]
    fn missing_header_is_the_one_fatal_ingest_error() {
        let cfg = SystemConfig::prefetch_default(5);
        let err = serve(&ServeOptions::new(cfg.clone()), &b"slot,1,2,3\n"[..]).unwrap_err();
        assert!(matches!(err, ServeError::MissingHeader(Some(ref e)) if e.line == 1));
        let err = serve(&ServeOptions::new(cfg.clone()), &b""[..]).unwrap_err();
        assert!(matches!(err, ServeError::MissingHeader(None)));
        // A population past `MAX_USERS` is a rejected line, so no engine
        // is sized from it, and the error names it.
        let huge = b"#serve,users=4000000000,horizon_ms=86400000\nslot,1,2,3\n";
        let mut opts = ServeOptions::new(cfg);
        opts.error_sample = 0;
        let err = serve(&opts, &huge[..]).unwrap_err().to_string();
        assert!(err.ends_with("first rejected: ingest error at line 1: `users` 4000000000 is past `MAX_USERS`, 16777216"), "{err}");
        // Inside `MAX_USERS`, 2^24 clients would still need ≈ 100 GB: the
        // header is rejected on the memory budget instead of aborting.
        let huge = b"#serve,users=16777216,horizon_ms=86400000\nslot,1,2,3\n";
        let err = serve(&opts, &huge[..]).unwrap_err().to_string();
        assert!(err.contains("line 1: `users` 16777216 at "), "{err}");
        assert!(err.ends_with("client memory budget"), "{err}");
    }

    #[test]
    fn a_slot_far_past_the_horizon_is_one_rejected_line() {
        // One slot, then one ~317,000 years later: the predictor would
        // otherwise observe the whole gap as one sync period.
        let stream =
            b"#serve,users=10,horizon_ms=86400000\nslot,1,2,3\nslot,10000000000000000,2,3\n";
        let started = Instant::now();
        let out = serve(
            &ServeOptions::new(SystemConfig::prefetch_default(5)),
            &stream[..],
        )
        .unwrap();
        assert_eq!((out.requests, out.ingest_errors), (1, 1));
        assert_eq!(out.error_sample[0].line, 3);
        assert!(
            started.elapsed().as_secs_f64() < 1.0,
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn oracle_predictor_is_rejected_up_front() {
        let mut cfg = SystemConfig::prefetch_default(5);
        cfg.predictor = PredictorKind::Oracle;
        let err = serve(
            &ServeOptions::new(cfg),
            &b"#serve,users=1,horizon_ms=1\n"[..],
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Unsupported(_)));
    }

    #[test]
    fn latency_histogram_records_every_request() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let out = serve(&ServeOptions::new(cfg), stream.as_slice()).unwrap();
        let hist = out
            .registry
            .histogram_snapshot(DECISION_LATENCY_METRIC)
            .expect("latency histogram present");
        assert_eq!(hist.count(), out.requests);
        assert_eq!(out.registry.counter_value("serve.requests"), out.requests);
    }

    #[test]
    fn an_invalid_config_is_an_error_not_a_hang() {
        let mut cfg = SystemConfig::prefetch_default(1);
        cfg.sla_target = 2.0;
        let input = &b"#serve,users=4,horizon_ms=86400000\nslot,1,0,0\n"[..];
        match serve(&ServeOptions::new(cfg), input) {
            Err(ServeError::Unsupported(reason)) => {
                assert_eq!(reason, "sla_target 2 outside [0, 1]")
            }
            other => panic!("expected the config refused, got {other:?}"),
        }
    }

    fn started(out: &ServeOutcome) -> u64 {
        out.registry.counter_value("serve.workers_started")
    }

    #[test]
    fn sessions_take_kept_workers_before_starting_threads() {
        // A pool of this test's own: tests running at once share `POOL`.
        static OWN: Pool = Pool::new();
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let mut opts = ServeOptions::new(cfg);
        let hooks = Hooks {
            pool: &OWN,
            ..Hooks::NONE
        };
        for (threads, starts) in [(1, 1), (3, 2), (3, 0), (1, 0)] {
            opts.threads = threads;
            let out = serve_with(&opts, stream.as_slice(), hooks).unwrap();
            assert_eq!(out.threads, threads);
            assert_eq!(started(&out), starts, "{threads} threads");
            assert_eq!(out.report.stable_hash(), batch, "{threads} threads");
        }
    }

    /// Yields `data` up to `at`, then waits at `meet` before yielding
    /// the rest.
    struct MeetAt {
        data: Vec<u8>,
        at: usize,
        pos: usize,
        meet: Option<std::sync::Arc<std::sync::Barrier>>,
    }

    impl std::io::Read for MeetAt {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.at {
                if let Some(meet) = self.meet.take() {
                    meet.wait();
                }
            }
            let end = if self.pos < self.at {
                self.at
            } else {
                self.data.len()
            };
            let n = (end - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn sessions_at_once_get_distinct_workers() {
        static OWN: Pool = Pool::new();
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let opts = ServeOptions::new(cfg);
        let hooks = Hooks {
            pool: &OWN,
            ..Hooks::NONE
        };
        // Two workers kept from a first session.
        let first = serve_with(&opts, stream.as_slice(), hooks).unwrap();
        assert_eq!(started(&first), 2);
        // Each session reads its events only once both have taken their
        // workers and built their engines: the two crews overlap.
        let meet = std::sync::Arc::new(std::sync::Barrier::new(2));
        let input = || {
            std::io::BufReader::new(MeetAt {
                data: stream.clone(),
                at: stream.iter().position(|&b| b == b'\n').unwrap() + 1,
                pos: 0,
                meet: Some(meet.clone()),
            })
        };
        let other = {
            let (opts, input) = (opts.clone(), input());
            std::thread::spawn(move || serve_with(&opts, input, hooks))
        };
        let here = serve_with(&opts, input(), hooks).unwrap();
        let other = other.join().unwrap().unwrap();
        for out in [&here, &other] {
            assert_eq!(out.report.stable_hash(), batch);
        }
        assert_eq!(
            started(&here) + started(&other),
            2,
            "four workers, two kept"
        );
    }

    #[test]
    fn failed_sessions_leave_their_workers_kept() {
        static OWN: Pool = Pool::new();
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let mut opts = ServeOptions::new(cfg);
        opts.threads = 3;
        let hooks = Hooks {
            pool: &OWN,
            ..Hooks::NONE
        };
        let half = &stream[..stream.len() / 2];
        let input = std::io::BufReader::new(ThenFails(half, ErrorKind::ConnectionReset));
        let err = serve_with(&opts, input, hooks).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        let lines = stream.split_inclusive(|&b| b == b'\n');
        let mut cut: Vec<u8> = lines.take(50).flatten().copied().collect();
        cut.extend_from_slice(b"shutdown\nslot,0,0,0\n");
        let early = serve_with(&opts, cut.as_slice(), hooks).unwrap();
        assert_eq!((early.requests, started(&early)), (49, 0));
        let out = serve_with(&opts, stream.as_slice(), hooks).unwrap();
        assert_eq!(started(&out), 0);
        assert_eq!(out.report.stable_hash(), batch);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_not_a_hang() {
        static OWN: Pool = Pool::new();
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let batch = batch_hash(&cfg);
        let mut opts = ServeOptions::new(cfg);
        for threads in [1, 2] {
            opts.threads = threads;
            for fault in [Fault::Build, Fault::Decide] {
                let hooks = Hooks {
                    pool: &OWN,
                    fault: Some(fault),
                    ..with_cap(5)
                };
                let session = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_with(&opts, stream.as_slice(), hooks)
                }));
                // The caller resumes the worker's own panic.
                let payload = session.expect_err("the caller panics");
                let dies = match fault {
                    Fault::Build => "injected fault: worker 0 dies building",
                    Fault::Decide => "injected fault: worker 0 dies deciding",
                };
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&dies),
                    "{fault:?} at {threads} threads"
                );
            }
        }
        // The workers whose jobs panicked are kept, and serve as before.
        let hooks = Hooks {
            pool: &OWN,
            ..Hooks::NONE
        };
        let out = serve_with(&opts, stream.as_slice(), hooks).unwrap();
        assert_eq!(started(&out), 0);
        assert_eq!(out.report.stable_hash(), batch);
    }
}
