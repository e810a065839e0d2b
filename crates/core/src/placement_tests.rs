//! The placement kernel held to the path it replaced.
//!
//! [`ReferencePool`] plus the three `*_reference` methods below are the
//! engine's placement code as it stood before the kernel, moved here
//! verbatim: a gather → rate → score pool build whose every probability
//! goes through the `f64`-bit-keyed [`AvailabilityCache`], zero-rate
//! candidates kept in the pool, `% n` cursor. The lockstep test drives
//! two engines over the same random population, sells through the kernel
//! on one and through the reference on the other, and compares the
//! placement state after every single sale.

use adpf_netem::NetemConfig;
use adpf_overbooking::availability::AvailabilityCache;
use adpf_traces::PopulationConfig;
use proptest::prelude::*;

use super::*;
use crate::PlannerKind;

/// The state the reference path needs and the engine no longer has.
struct ReferencePool {
    avail: AvailabilityCache,
    cands: Vec<ClientAvailability>,
    /// `(lambda, mean_session_slots)` per pool entry.
    meta: Vec<(f64, f64)>,
    gather: Vec<(u32, SimTime)>,
}

impl ReferencePool {
    fn new(config: &SystemConfig) -> Self {
        Self {
            avail: AvailabilityCache::new(config.availability_dispersion),
            cands: Vec::new(),
            meta: Vec::new(),
            gather: Vec::new(),
        }
    }
}

impl ClientEngine {
    fn place_ad_reference(
        &mut self,
        r: &mut ReferencePool,
        origin: usize,
        now: SimTime,
        deadline: SimTime,
        pool_built: &mut bool,
    ) -> InlineVec<u32, { PLAN_INLINE + 1 }> {
        let lambda = self.clients.expected_rate(origin, now, deadline);
        let queued = self.clients.queued[origin];
        let mean_session = self.clients.predictor(origin).mean_session_slots();
        let p_origin = r
            .avail
            .display_probability_bursty(lambda, queued, mean_session);
        let mut holders: InlineVec<u32, { PLAN_INLINE + 1 }> = InlineVec::new();
        holders.push(origin as u32);
        if p_origin >= self.config.sla_target {
            return holders;
        }
        let residual_target = 1.0 - (1.0 - self.config.sla_target) / (1.0 - p_origin).max(1e-9);
        if residual_target <= 0.0 {
            return holders;
        }
        if !*pool_built {
            self.build_candidate_pool_reference(r, origin, now, deadline);
            *pool_built = true;
        }
        let plan = self.config.planner.plan(
            &r.cands,
            residual_target,
            self.config.max_replicas.saturating_sub(1),
        );
        holders.extend_from_slice(&plan.clients);
        holders
    }

    fn build_candidate_pool_reference(
        &mut self,
        r: &mut ReferencePool,
        origin: usize,
        now: SimTime,
        deadline: SimTime,
    ) {
        r.cands.clear();
        r.meta.clear();
        r.gather.clear();
        self.pool_build_id += 1;
        self.obs.inc(self.mid.pool_builds, 1);
        let n = self.clients.len();
        if n <= 1 {
            return;
        }
        let want = (self.config.candidate_pool - 1).min(n - 1);
        let mut taken = 0;
        let window_open = deadline.saturating_sub(self.config.replica_window).max(now);
        while taken < want {
            self.cand_cursor = (self.cand_cursor + 1) % n;
            let j = self.cand_cursor;
            if j == origin {
                continue;
            }
            taken += 1;
            let start = self.clients.next_sync[j].max(window_open);
            if start >= deadline {
                continue;
            }
            r.gather.push((j as u32, start));
        }
        for idx in 0..r.gather.len() {
            let (j, start) = r.gather[idx];
            let lambda_j = self.clients.expected_rate(j as usize, start, deadline);
            let mean_session_j = self.clients.predictor(j as usize).mean_session_slots();
            r.meta.push((lambda_j, mean_session_j));
        }
        for idx in 0..r.gather.len() {
            let (j, _) = r.gather[idx];
            let (lambda_j, mean_session_j) = r.meta[idx];
            let queued_j = self.clients.queued[j as usize];
            let prob = r
                .avail
                .display_probability_bursty(lambda_j, queued_j, mean_session_j);
            r.cands.push(ClientAvailability { client: j, prob });
            self.scratch.pool_pos[j as usize] = idx as u32;
            self.scratch.pool_epoch[j as usize] = self.pool_build_id;
        }
        self.obs.inc(self.mid.pool_scored, r.cands.len() as u64);
    }

    fn refresh_pool_probs_reference(&mut self, r: &mut ReferencePool, holders: &[u32]) {
        for &h in holders.iter().skip(1) {
            if self.scratch.pool_epoch[h as usize] != self.pool_build_id {
                continue;
            }
            let pos = self.scratch.pool_pos[h as usize] as usize;
            assert_eq!(r.cands[pos].client, h);
            let (lambda, mean_session) = r.meta[pos];
            let queued = self.clients.queued[h as usize];
            r.cands[pos].prob = r
                .avail
                .display_probability_bursty(lambda, queued, mean_session);
            self.obs.inc(self.mid.pool_rescored, 1);
        }
    }
}

/// Everything placement writes, compared between the kernel engine `k`
/// and the reference engine `e` with its pool `r`.
fn compare(k: &ClientEngine, e: &ClientEngine, r: &ReferencePool) -> Result<(), TestCaseError> {
    prop_assert_eq!(k.cand_cursor, e.cand_cursor);
    prop_assert_eq!(k.pool_build_id, e.pool_build_id);
    prop_assert_eq!(&k.clients.queued, &e.clients.queued);
    for name in [
        "sim.pool.builds",
        "sim.pool.candidates_scored",
        "sim.pool.candidates_rescored",
    ] {
        prop_assert_eq!(
            k.obs.counter_value(name),
            e.obs.counter_value(name),
            "{}",
            name
        );
    }
    // The kernel's pool is the reference's, in order and to the bit,
    // minus entries no planner can pick.
    let mut kernel = k.scratch.cands.iter().enumerate().peekable();
    for want in &r.cands {
        match kernel.peek() {
            Some(&(pos, got)) if got.client == want.client => {
                prop_assert_eq!(
                    got.prob.to_bits(),
                    want.prob.to_bits(),
                    "client {}",
                    got.client
                );
                let j = got.client as usize;
                prop_assert_eq!(k.scratch.pool_epoch[j], k.pool_build_id);
                prop_assert_eq!(k.scratch.pool_pos[j] as usize, pos);
                kernel.next();
            }
            _ => {
                prop_assert!(
                    want.prob <= 0.0,
                    "client {} (prob {:e}) is missing from the kernel's pool",
                    want.client,
                    want.prob
                );
                // Left out means left out: no stale handle into the pool.
                prop_assert_ne!(k.scratch.pool_epoch[want.client as usize], k.pool_build_id);
            }
        }
    }
    prop_assert!(
        kernel.next().is_none(),
        "the kernel's pool has extra entries"
    );
    prop_assert_eq!(k.scratch.tails.len(), k.scratch.cands.len());
    Ok(())
}

/// Expected rates a predictor will not produce on a three-day trace but
/// may legally return: zero and negative, NaN, the smallest
/// subnormal (the session rate underflows to zero), a normal rate so
/// small that `exp(-rate)` rounds to one (a positive rate scoring zero),
/// and a client certain to display.
const PLANTED_RATES: [f64; 7] = [0.0, -1.0, f64::NAN, 5e-324, 1e-30, 0.3, 400.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel and reference in lockstep over one random population: both
    /// engines are driven through the same slot stream; at a dozen points
    /// along it one client sells several ads in one sync — through
    /// `place_ad` on one engine, `place_ad_reference` on the other — and
    /// after every sale holders, pool, cursor and counters
    /// agree. Some candidates get planted rates for the length of that
    /// sync, and between sales a
    /// holder's queue sometimes *falls* (never seen within a real sync;
    /// the kernel must restart its sum). The rest of the stream then runs
    /// on top of what each path left behind, and the reports agree.
    #[test]
    fn placement_kernel_matches_the_cached_reference(
        seed in any::<u64>(),
        users in 1u32..28,
        planner_sel in 0u8..6,
        pool_sel in 0usize..5,
        sla_sel in 0usize..3,
        window_mins in 10u64..400,
        netem in any::<bool>(),
    ) {
        let mut pop = PopulationConfig::small_test(seed);
        pop.num_users = users;
        pop.days = 3;
        let trace = pop.generate();
        let mut config = SystemConfig::prefetch_default(seed);
        config.planner = match planner_sel {
            0 => PlannerKind::NoReplication,
            1 => PlannerKind::FixedK(2),
            2 => PlannerKind::FixedK(9),
            _ => PlannerKind::Greedy,
        };
        config.candidate_pool = [1, 2, 5, 16, 64][pool_sel];
        config.sla_target = [0.5, 0.95, 0.9999][sla_sel];
        config.max_replicas = 1 + (seed % 6) as usize;
        config.replica_window = SimDuration::from_mins(window_mins);
        if netem {
            // Rescues advance the same rotating cursor between syncs.
            config.netem = NetemConfig::flaky_cellular();
        }
        let slots = trace.ad_slots(config.ad_refresh);
        let by_user = UserSlots::from_slots(&slots, trace.num_users());
        let ctx = ShardContext::new(&config);
        let mk = || ClientEngine::new(config.clone(), &by_user, trace.horizon(), trace.days(), &ctx);
        let (mut k, mut e) = (mk(), mk());
        let mut r = ReferencePool::new(&config);
        let mut script = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let stride = (slots.len() / 12).max(1);
        let n = users as usize;

        for (i, s) in slots.iter().enumerate() {
            k.drain_internal_before(s.time);
            e.drain_internal_before(s.time);
            let (now, origin) = (s.time, script.gen_range(0..n));
            let deadline = (now + config.deadline).min(trace.horizon());
            if i % stride == stride / 2 && deadline > now {
                // One selling sync, placement side only.
                for _ in 0..script.gen_range(0..4) {
                    let j = script.gen_range(0..n);
                    let rate = PLANTED_RATES[script.gen_range(0..PLANTED_RATES.len())];
                    if j != origin {
                        k.clients.plant[j] = Some(rate);
                        e.clients.plant[j] = Some(rate);
                    }
                }
                let mut placement = SyncPlacement::default();
                let mut pool_built = false;
                for _ in 0..script.gen_range(1..7) {
                    let holders = k.place_ad(origin, now, deadline, &mut placement);
                    if placement.pool_built && !pool_built {
                        // Fresh from the build: nothing unpickable got in
                        // (later sales may push an entry down to zero).
                        prop_assert!(k.scratch.cands.iter().all(|c| c.prob > 0.0));
                    }
                    let want = e.place_ad_reference(&mut r, origin, now, deadline, &mut pool_built);
                    prop_assert_eq!(holders.as_slice(), want.as_slice());
                    prop_assert_eq!(placement.pool_built, pool_built);
                    for &h in holders.iter() {
                        k.clients.queued[h as usize] += 1;
                        e.clients.queued[h as usize] += 1;
                    }
                    k.refresh_pool_probs(&holders);
                    e.refresh_pool_probs_reference(&mut r, &holders);
                    if pool_built {
                        compare(&k, &e, &r)?;
                    }
                    if holders.len() > 1 && script.gen_range(0..3) == 0 {
                        let h = holders[script.gen_range(1..holders.len())];
                        let fall = script.gen_range(1u32..6).min(k.clients.queued[h as usize]);
                        k.clients.queued[h as usize] -= fall;
                        e.clients.queued[h as usize] -= fall;
                        k.refresh_pool_probs(&[origin as u32, h]);
                        e.refresh_pool_probs_reference(&mut r, &[origin as u32, h]);
                        compare(&k, &e, &r)?;
                    }
                }
                k.clients.plant.fill(None);
                e.clients.plant.fill(None);
            }
            k.on_slot(s.time, s.user, s.app);
            e.on_slot(s.time, s.user, s.app);
        }
        k.drain_internal();
        e.drain_internal();
        prop_assert_eq!(k.cand_cursor, e.cand_cursor);
        let (kr, er) = (k.into_report(), e.into_report());
        let (kreg, ereg) = (&kr.metrics, &er.metrics);
        prop_assert_eq!(kr.stable_hash(), er.stable_hash());
        prop_assert!(kr == er);
        for name in ["sim.pool.builds", "sim.pool.candidates_scored", "sim.pool.candidates_rescored"] {
            prop_assert_eq!(kreg.counter_value(name), ereg.counter_value(name));
        }
    }

    /// What makes leaving zero-probability candidates out of the pool
    /// exact: every planner returns the same plan with and without them.
    #[test]
    fn placement_planners_ignore_zero_probability_candidates(
        probs in prop::collection::vec(
            (0u8..4, 0.0f64..1.0).prop_map(|(sel, p)| match sel {
                0 => 0.0,
                1 => -0.0,
                // Coarse grid: ties exercise the client-id tie-break.
                2 => (p * 8.0).floor() / 8.0,
                _ => p,
            }),
            0..80,
        ),
        target in 0.0f64..1.0,
        max_replicas in 0usize..10,
        k in 0usize..10,
    ) {
        let all: Vec<ClientAvailability> = probs
            .iter()
            .enumerate()
            .map(|(i, &prob)| ClientAvailability { client: i as u32 * 3, prob })
            .collect();
        let positive: Vec<ClientAvailability> =
            all.iter().copied().filter(|c| c.prob > 0.0).collect();
        for kind in [PlannerKind::Greedy, PlannerKind::FixedK(k), PlannerKind::NoReplication] {
            prop_assert_eq!(
                kind.plan(&all, target, max_replicas),
                kind.plan(&positive, target, max_replicas),
                "{}", kind.label()
            );
        }
    }
}
