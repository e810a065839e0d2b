//! The traced run's own drive of the program, and the per-layer metrics
//! derived from it.
//!
//! Instead of the opaque `Simulator::run_*` / `serve` call, each shard is
//! driven here through the public seams `adpf-serve` itself uses —
//! `shard_ranges`, `shard_configs`, `ShardContext::new`, a generated (or
//! split) shard trace, `ClientEngine::new`, then per slot
//! `drain_internal_before` + `on_slot`, then `drain_internal`,
//! `finalize` and a shard-order `SimReport::merge` — with a span around
//! every call. It is a second, independent path to the same report, so
//! its hash doubles as a correctness check on the untraced run. Shards
//! run one after another: the drive gives attribution, not speed.

use std::collections::BTreeMap;
use std::time::Instant;

use adpf_core::{shard_configs, ClientEngine, ShardContext, SimReport};
use adpf_desim::SimTime;
use adpf_obs::MetricRegistry;
use adpf_serve::protocol::Parsed;
use adpf_serve::Parser;
use adpf_traces::{shard_ranges, AppId, Trace, UserId, UserSlots};

use crate::spans::Recorder;
use crate::workloads::{Inputs, Kind, RunOutput};

/// Name of the span that wraps one shard of a sim drive.
pub const SHARD_SPAN: &str = "core.shard";

/// What a traced drive produced besides its spans.
pub struct Drive {
    pub report: SimReport,
    pub registry: MetricRegistry,
    /// Busy nanoseconds per shard (generation, set-up, event loop,
    /// finalize), in shard order. Empty for the serve drive, whose
    /// shards interleave on one thread.
    pub shard_busy_ns: Vec<u64>,
    /// Wall seconds of the whole drive.
    pub wall_s: f64,
    /// Ad slots the drive pushed through `on_slot`.
    pub slots: u64,
    /// Lines fed to the protocol parser (serve drive only).
    pub lines_fed: u64,
}

/// Drives `inputs` through the traced path, recording into `rec`.
pub fn drive(inputs: &Inputs, rec: &mut Recorder) -> Drive {
    match inputs.workload.kind {
        Kind::Stream(_) | Kind::BatchRealtime => drive_sim(inputs, rec),
        Kind::ServeFirehose | Kind::ServePaced => drive_serve(inputs, rec),
    }
}

/// The shard-order merge both drives end in: reports and registries
/// folded one shard at a time, a span around each fold.
struct Merged {
    report: SimReport,
    registry: MetricRegistry,
}

impl Merged {
    fn new(users: u32) -> Self {
        let mut report = SimReport::empty();
        report.reserve_users(users as usize);
        Self {
            report,
            registry: MetricRegistry::new(),
        }
    }

    fn absorb(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        shard: Option<u32>,
        report: &SimReport,
        registry: &MetricRegistry,
    ) {
        rec.scope("core.report.merge", Some(parent), shard, || {
            self.report.merge(report)
        });
        rec.scope("obs.merge", Some(parent), shard, || {
            self.registry.merge(registry)
        });
    }
}

/// Pushes `slots` (time-sorted) through one engine, timing the two
/// per-call classes; returns `(on_slot_ns, drain_ns, slots pushed)`.
fn drive_engine(
    engine: &mut ClientEngine,
    slots: impl Iterator<Item = (SimTime, UserId, AppId)>,
) -> (u64, u64, u64) {
    let (mut on_slot_ns, mut drain_ns, mut n) = (0u64, 0u64, 0u64);
    for (t, user, app) in slots {
        let a = Instant::now();
        engine.drain_internal_before(t);
        let b = Instant::now();
        engine.on_slot(t, user, app);
        let c = Instant::now();
        drain_ns += (b - a).as_nanos() as u64;
        on_slot_ns += (c - b).as_nanos() as u64;
        n += 1;
    }
    (on_slot_ns, drain_ns, n)
}

fn drive_sim(inputs: &Inputs, rec: &mut Recorder) -> Drive {
    let t0 = Instant::now();
    let cfg = &inputs.cfg;
    let users = inputs.pop.num_users;
    let root = rec.begin("core.sim", None, None);
    let ranges = shard_ranges(users, inputs.n_shards);
    let configs = shard_configs(cfg, users, &ranges);
    let ctx = ShardContext::new(cfg);
    // The materialized pipeline splits the whole trace up front; the
    // streaming one generates each shard inside its own span below.
    let split: Option<Vec<Trace>> = inputs.trace.as_ref().map(|t| {
        rec.scope("core.sim.split", Some(root), None, || {
            t.split_users(inputs.n_shards)
        })
    });

    let mut merged = Merged::new(users);
    let mut shard_busy_ns = Vec::with_capacity(ranges.len());
    let mut slots_driven = 0;
    for (i, shard_cfg) in configs.into_iter().enumerate() {
        let shard = Some(i as u32);
        let sid = rec.begin(SHARD_SPAN, Some(root), shard);
        let generated = match &split {
            Some(_) => None,
            None => Some(rec.scope("traces.gen", Some(sid), shard, || inputs.generate_shard(i))),
        };
        let trace: &Trace = match (&generated, &split) {
            (Some(t), _) => t,
            (None, Some(s)) => &s[i],
            (None, None) => unreachable!("a shard is generated or split"),
        };
        let setup = rec.begin("core.engine.setup", Some(sid), shard);
        let slots = trace.ad_slots(cfg.ad_refresh);
        let by_user = UserSlots::from_slots(&slots, trace.num_users());
        let mut engine =
            ClientEngine::new(shard_cfg, &by_user, trace.horizon(), trace.days(), &ctx);
        rec.end(setup);

        let (on_slot_ns, mut drain_ns, n) =
            drive_engine(&mut engine, slots.iter().map(|s| (s.time, s.user, s.app)));
        let a = Instant::now();
        engine.drain_internal();
        drain_ns += a.elapsed().as_nanos() as u64;
        rec.aggregate("core.engine.on_slot", sid, shard, on_slot_ns, n);
        rec.aggregate("core.engine.drain", sid, shard, drain_ns, n + 1);
        slots_driven += n;

        let (report, reg) = rec.scope("core.engine.finalize", Some(sid), shard, || {
            engine.finalize()
        });
        rec.end(sid);
        shard_busy_ns.push(rec.spans()[sid].duration_ns());
        merged.absorb(rec, root, shard, &report, &reg);
    }
    rec.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    // The scenario layer's share of generation: the same shards again
    // through the base generator, outside the drive's own wall time.
    if inputs.scenario.is_some() {
        for i in 0..ranges.len() {
            rec.scope("traces.gen_base", None, Some(i as u32), || {
                std::hint::black_box(inputs.pop.generate_shard(i, inputs.n_shards));
            });
        }
    }
    Drive {
        report: merged.report,
        registry: merged.registry,
        shard_busy_ns,
        wall_s,
        slots: slots_driven,
        lines_fed: 0,
    }
}

/// The serve drive: the same byte stream parsed with `Parser::feed` and
/// pushed straight into cold engines on this one thread — the server's
/// work without its router thread, channel and worker.
fn drive_serve(inputs: &Inputs, rec: &mut Recorder) -> Drive {
    let t0 = Instant::now();
    let cfg = &inputs.cfg;
    let stream = inputs.stream.as_ref().expect("serve workload has a stream");
    let text = std::str::from_utf8(&stream.bytes).expect("the wire protocol is text");
    let root = rec.begin("serve.drive", None, None);

    let feed = rec.begin("serve.protocol.feed", Some(root), None);
    let mut parser = Parser::new();
    let mut header = None;
    let mut events = Vec::with_capacity(stream.line_ends.len());
    let mut lines_fed = 0u64;
    for line in text.lines() {
        lines_fed += 1;
        match parser.feed(line) {
            Parsed::Header(h) => header = Some(h),
            Parsed::Event(e) => events.push(e),
            Parsed::Shutdown => break,
            Parsed::Skip | Parsed::Rejected(_) => {}
        }
    }
    rec.end(feed);
    let header = header.expect("a generated stream starts with its header");

    let setup = rec.begin("core.engine.setup", Some(root), None);
    let users = header.users;
    let horizon = SimTime::from_millis(header.horizon_ms);
    let days = header.horizon_ms.div_ceil(adpf_desim::time::MILLIS_PER_DAY) as u32;
    let ranges = shard_ranges(users, inputs.n_shards);
    let configs = shard_configs(cfg, users, &ranges);
    let ctx = ShardContext::new(cfg);
    let mut engines: Vec<ClientEngine> = configs
        .into_iter()
        .zip(&ranges)
        .map(|(c, r)| {
            let cold = UserSlots::from_slots(&[], r.end - r.start);
            ClientEngine::new(c, &cold, horizon, days, &ctx)
        })
        .collect();
    rec.end(setup);

    let engine_span = rec.begin("serve.engine", Some(root), None);
    let n = engines.len();
    let (mut on_slot_ns, mut drain_ns, mut calls) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    for e in &events {
        let s = ranges.partition_point(|r| r.end <= e.user);
        let slot = (
            SimTime::from_millis(e.time_ms),
            UserId(e.user - ranges[s].start),
            AppId(e.app),
        );
        let (a, b, c) = drive_engine(&mut engines[s], std::iter::once(slot));
        on_slot_ns[s] += a;
        drain_ns[s] += b;
        calls[s] += c;
    }
    for (s, engine) in engines.iter_mut().enumerate() {
        let a = Instant::now();
        engine.drain_internal();
        drain_ns[s] += a.elapsed().as_nanos() as u64;
    }
    rec.end(engine_span);
    for s in 0..n {
        let shard = Some(s as u32);
        rec.aggregate(
            "core.engine.on_slot",
            engine_span,
            shard,
            on_slot_ns[s],
            calls[s],
        );
        rec.aggregate(
            "core.engine.drain",
            engine_span,
            shard,
            drain_ns[s],
            calls[s] + 1,
        );
    }

    let mut merged = Merged::new(users);
    for (s, engine) in engines.into_iter().enumerate() {
        let shard = Some(s as u32);
        let (report, reg) = rec.scope("core.engine.finalize", Some(root), shard, || {
            engine.finalize()
        });
        merged.absorb(rec, root, shard, &report, &reg);
    }
    rec.end(root);
    Drive {
        report: merged.report,
        registry: merged.registry,
        shard_busy_ns: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        slots: events.len() as u64,
        lines_fed,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The span- and count-sourced per-layer metrics of a traced run.
/// `plain` is the untraced run beside it (with the CPU seconds it used),
/// `observed` the program's `*_observed` twin, `drive` the traced drive
/// whose spans are in `rec`.
pub fn layer_metrics(
    inputs: &Inputs,
    plain: &RunOutput,
    plain_cpu_s: f64,
    observed: Option<&RunOutput>,
    drive: &Drive,
    rec: &Recorder,
) -> BTreeMap<&'static str, f64> {
    let span_s = |name: &str| rec.total_s(name);
    let reg = &drive.registry;
    let count = |name: &str| reg.counter_value(name) as f64;
    let report = &drive.report;
    let slots = report.slots as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // traces / scenario
    let gen_s = span_s("traces.gen");
    m.insert("traces.gen_s", gen_s);
    m.insert("traces.gen_ns_per_slot", ratio(gen_s * 1e9, slots));
    m.insert("traces.slots", drive.slots as f64);
    if inputs.scenario.is_some() {
        m.insert("scenario.gen_extra_s", gen_s - span_s("traces.gen_base"));
    }
    m.insert(
        "scenario.cap_blocked_syncs",
        report.scenario.cap_blocked_syncs as f64,
    );
    m.insert(
        "scenario.metered_mb",
        report.scenario.metered_bytes() as f64 / (1024.0 * 1024.0),
    );

    // desim: every event the engines dispatched, external slots included.
    let internal: f64 = [
        "sim.event.sync",
        "sim.event.retry",
        "sim.event.expiry_sweep",
        "sim.event.pacing",
    ]
    .iter()
    .map(|name| count(name))
    .sum();
    let events = count("sim.event.slot") + internal;
    m.insert("desim.events", events);
    m.insert("desim.events_per_slot", ratio(events, slots));

    // auction / pacing
    m.insert("auction.auctions", count("auction.auctions"));
    m.insert(
        "auction.fill_frac",
        ratio(count("auction.filled"), count("auction.auctions")),
    );
    m.insert("pacing.ticks", count("pacing.ticks"));
    m.insert("pacing.throttle_skips", count("pacing.throttle_skips"));

    // overbooking
    let builds = count("sim.pool.builds");
    let scored = count("sim.pool.candidates_scored");
    m.insert("overbooking.pool_builds", builds);
    m.insert("overbooking.cands_scored_per_build", ratio(scored, builds));
    m.insert(
        "overbooking.rescored_frac",
        ratio(count("sim.pool.candidates_rescored"), scored),
    );
    m.insert(
        "overbooking.replicas_per_ad",
        ratio(
            count("overbooking.replicas_registered"),
            count("overbooking.ads_registered"),
        ),
    );
    m.insert(
        "overbooking.duplicate_frac",
        ratio(
            count("overbooking.duplicate_displays"),
            count("overbooking.first_displays"),
        ),
    );
    m.insert(
        "overbooking.peak_tracked",
        reg.gauge_value("overbooking.peak_tracked") as f64,
    );

    // energy / netem
    m.insert("energy.transfers", report.energy.transfers as f64);
    let attempts = count("netem.attempts");
    m.insert("netem.attempts", attempts);
    m.insert(
        "netem.attempt_fail_frac",
        ratio(count("netem.attempt_failures"), attempts),
    );
    m.insert("netem.retries_scheduled", count("netem.retries_scheduled"));

    // core
    let on_slot_ns = rec.total_ns("core.engine.on_slot");
    let on_slot_calls = rec.total_calls("core.engine.on_slot");
    let drain_ns = rec.total_ns("core.engine.drain");
    m.insert("core.engine.setup_s", span_s("core.engine.setup"));
    m.insert("core.engine.on_slot_s", on_slot_ns as f64 / 1e9);
    m.insert(
        "core.engine.on_slot_ns",
        ratio(on_slot_ns as f64, on_slot_calls as f64),
    );
    m.insert("core.engine.drain_s", drain_ns as f64 / 1e9);
    m.insert(
        "core.engine.drain_ns_per_event",
        ratio(drain_ns as f64, internal),
    );
    m.insert("core.engine.finalize_s", span_s("core.engine.finalize"));
    m.insert("core.report.merge_s", span_s("core.report.merge"));
    m.insert("core.sim.split_s", span_s("core.sim.split"));
    if !drive.shard_busy_ns.is_empty() {
        let threads = match inputs.workload.kind {
            Kind::BatchRealtime => 2.0,
            _ => 1.0,
        };
        let busy: Vec<f64> = drive
            .shard_busy_ns
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        let total: f64 = busy.iter().sum();
        let max = busy.iter().copied().fold(0.0, f64::max);
        // What the untraced run's wall holds beyond perfectly packed
        // shard work: scheduling, the split, the merge, idle tails.
        m.insert("core.sim.sched_other_s", plain.wall_s - total / threads);
        m.insert("core.shard_skew", ratio(max, total / busy.len() as f64));
    }
    let syncs = report.syncs as f64;
    m.insert("core.syncs", syncs);
    m.insert(
        "core.syncs_skipped_frac",
        ratio(
            report.syncs_skipped as f64,
            syncs + report.syncs_skipped as f64,
        ),
    );
    m.insert("core.cache_hit_frac", report.cache_hit_rate());

    // serve: the untraced call beside the single-thread drive.
    if let Some(sreg) = plain.registry.as_ref().filter(|_| drive.lines_fed > 0) {
        let feed_s = span_s("serve.protocol.feed");
        let engine_s = span_s("serve.engine");
        m.insert(
            "serve.protocol.feed_ns",
            ratio(feed_s * 1e9, drive.lines_fed as f64),
        );
        m.insert("serve.server.serve_s", plain.wall_s);
        m.insert("serve.engine_s", engine_s);
        m.insert("serve.chan_other_s", plain.wall_s - feed_s.max(engine_s));
        let rate = ratio(plain.requests as f64, plain.wall_s);
        if let Some(h) = sreg.histogram_snapshot(adpf_serve::DECISION_LATENCY_METRIC) {
            let p99 = h.quantile_upper_bound(0.99) as f64;
            m.insert("serve.decision_p50_us", h.quantile_upper_bound(0.50) as f64);
            m.insert("serve.decision_p99_us", p99);
            m.insert("serve.decision_max_us", h.max() as f64);
            // Little's law at the tail: requests in flight when the
            // slowest percentile was waiting.
            m.insert("serve.backlog_peak_est", p99 / 1e6 * rate);
        }
        m.insert("serve.requests", plain.requests as f64);
        m.insert("serve.ingest_errors", plain.ingest_errors as f64);
    }
    if let Some(g) = &plain.generator {
        let late_us: Vec<f64> = g.late.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        m.insert(
            "gen.offered_per_s",
            ratio(g.sent as f64, g.span.as_secs_f64()),
        );
        m.insert("gen.late_p99_us", crate::stats::quantile(&late_us, 0.99));
        m.insert(
            "gen.late_max_us",
            late_us.iter().copied().fold(0.0, f64::max),
        );
    }

    // obs / proc
    m.insert("obs.merge_s", span_s("obs.merge"));
    if let Some(oreg) = observed.and_then(|o| o.registry.as_ref()) {
        let t = |name: &str| oreg.time_ns(name) as f64 / 1e9;
        m.insert("phase.event_loop_s", t("phase.event_loop"));
        m.insert("phase.shard_setup_s", t("phase.shard_setup"));
        m.insert("phase.merge_s", t("phase.merge"));
        m.insert("phase.trace_gen_s", t("phase.trace_gen"));
    }
    m.insert(
        "proc.cpu_s_per_mslot",
        ratio(plain_cpu_s * 1e6, plain.report.slots as f64),
    );
    m.insert("proc.cpu_util", ratio(plain_cpu_s, plain.wall_s));
    m.insert(
        "proc.slots_per_wall_s",
        ratio(plain.report.slots as f64, plain.wall_s),
    );
    // The drive runs on one thread, so its wall time is compared with
    // the CPU seconds of the untraced run (its wall time on the
    // one-thread workloads). The serve drive is a different pipeline
    // shape (no router, no channel), so no like-for-like figure exists.
    if !drive.shard_busy_ns.is_empty() {
        m.insert(
            "trace.overhead_frac",
            ratio(drive.wall_s - plain_cpu_s, plain_cpu_s),
        );
    }
    m
}

/// `*.est_share`: a probe's warm-cache cost times the number of calls
/// the run made, over the engines' busy time. An estimate — probes run
/// hot and alone — and labelled as one everywhere it is printed.
pub fn derive_shares(m: &mut BTreeMap<&'static str, f64>) {
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let busy_ns = (get(m, "core.engine.on_slot_s") + get(m, "core.engine.drain_s")) * 1e9;
    let syncs = get(m, "core.syncs");
    let prediction = (get(m, "prediction.observe_ns") + get(m, "prediction.predict_ns")) * syncs;
    let auction = get(m, "auction.run_auction_ns") * get(m, "auction.auctions");
    let energy = get(m, "energy.transfer_ns") * get(m, "energy.transfers");
    m.insert("prediction.est_share", ratio(prediction, busy_ns));
    m.insert("auction.est_share", ratio(auction, busy_ns));
    m.insert("energy.est_share", ratio(energy, busy_ns));
}
