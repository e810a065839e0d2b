//! One benchmark run in this process: set-up, the timed region, the
//! correctness checks, and the result line.
//!
//! This is what the contract's
//! `--workload W --seed S --seconds T --trace 0|1` invocation executes.
//! `bench run` and `bench check` re-execute the binary once per run so
//! that allocator state and peak RSS are per run.

use std::collections::BTreeMap;
use std::time::Instant;

use adpf_core::SimReport;

use crate::calib::{reference_seconds, Calibrator};
use crate::catalog::{self, Metric};
use crate::json::quote;
use crate::procfs;
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::workloads::{self, Inputs, Kind, RunOutput, Workload, LIMIT_US};
use crate::{probes, traced};

/// How often set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Population of the warm-up pass, as a share of the run's population.
const WARMUP_SCALE: f64 = 0.2;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: f64,
    /// Directory the traced run writes `trace-<workload>.jsonl` into.
    pub out_dir: String,
}

/// What one run produced, before rendering.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Ad slots the input offers, counted from the input itself.
    pub offered: u64,
    /// Hash of the (identical) report every iteration produced.
    pub hash: u64,
    /// Hash of the report the `sim_*` figures were read from (the run
    /// over the fixed [`workloads::SIM_SEED`] population); 0 when traced.
    pub sim_hash: u64,
    /// Whether the kernel refused the VmHWM reset, so `peak_rss_mb`
    /// includes set-up.
    pub rss_includes_setup: bool,
    /// Wall seconds of each iteration's timed call, in order.
    pub walls_s: Vec<f64>,
    /// VmHWM of each iteration in MiB, reset before each; empty when traced.
    pub peaks_mb: Vec<f64>,
    /// Host slowdown readings (see [`crate::calib`]) around the
    /// iterations: one before the first, one after each.
    pub slowdowns: Vec<f64>,
    /// Why `correct` is false, one line per violated check.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The informational line printed before the result line: what the
    /// contract's four keys have no room for.
    pub fn info_line(&self) -> String {
        format!(
            "{{\"info\": 1, \"workload\": {}, \"seed\": {}, \"traced\": {}, \"hash\": \"{:016x}\", \
             \"sim_hash\": \"{:016x}\", \"iterations\": {}, \"walls_s\": {:?}, \
             \"peaks_mb\": {:?}, \"slowdowns\": {:?}, \
             \"rss_includes_setup\": {}, \"violations\": [{}]}}",
            quote(self.workload),
            self.seed,
            self.traced,
            self.hash,
            self.sim_hash,
            self.walls_s.len(),
            self.walls_s,
            self.peaks_mb,
            self.slowdowns,
            self.rss_includes_setup,
            self.violations
                .iter()
                .map(|v| quote(v))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of the
    /// list that matches `traced`. A per-layer metric the workload's
    /// layers never set reads 0 (the layer was bypassed); an end-to-end
    /// metric that is missing was already made a violation by
    /// [`unmeasured`], so the 0 printed for it sits in a failed run.
    pub fn result_line(&self) -> String {
        let list: &[Metric] = if self.traced {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(m.name),
                    quote(m.unit)
                )
            })
            .collect();
        // A run whose checks fail reports all of its ops as failed.
        let attempted = self.offered.max(1);
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            if self.correct() { 0 } else { attempted },
            metrics.join(", ")
        )
    }
}

/// Set-up as a user of the program pays it: build the inputs, then push
/// a small population through the same entry point so lazy
/// initialisation and allocator growth happen before the timed region.
fn set_up(workload: &'static Workload, seed: u64, scale: f64) -> Inputs {
    let inputs = Inputs::build(workload, seed, scale);
    let warm = Inputs::build(workload, seed, scale * WARMUP_SCALE);
    std::hint::black_box(workloads::run_unpaced(&warm).report.slots);
    inputs
}

/// Repeats set-up [`SETUP_REPS`] times, a calibration before and after
/// each; returns the last inputs, the median set-up time in reference
/// seconds, and the last slowdown reading.
fn timed_set_up(args: &RunArgs, cal: &mut Calibrator) -> Result<(Inputs, f64, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    let mut before = cal.slowdown()?;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(set_up(args.workload, args.seed, args.scale));
        let wall_s = t0.elapsed().as_secs_f64();
        let after = cal.slowdown()?;
        times.push(reference_seconds(wall_s, before, after));
        before = after;
    }
    Ok((inputs.expect("SETUP_REPS > 0"), median(&times), before))
}

/// Whether to start another iteration: stop once the next one (assumed
/// as long as the last) would end further from the budget than now.
pub fn keep_going(elapsed_s: f64, last_iter_s: f64, budget_s: f64) -> bool {
    elapsed_s + last_iter_s / 2.0 < budget_s
}

/// Share of offered requests the server decided within [`LIMIT_US`]:
/// histogram buckets whose upper bound is within the limit count, every
/// other offered request — slower, rejected, never decided — is a miss.
pub fn within_limit_frac(out: &RunOutput, offered: u64) -> f64 {
    let Some(hist) = out
        .registry
        .as_ref()
        .and_then(|r| r.histogram_snapshot(adpf_serve::DECISION_LATENCY_METRIC))
    else {
        return 0.0;
    };
    let within: u64 = hist
        .nonzero_buckets()
        .filter(|&(i, _)| adpf_obs::Histogram::bucket_upper_bound(i) <= LIMIT_US)
        .map(|(_, n)| n)
        .sum();
    within.min(offered) as f64 / offered.max(1) as f64
}

/// Slots of `offered` the run did not account for: missing from the
/// report, rejected at ingest, or never decided.
pub fn failed_ops(kind: Kind, out: &RunOutput, offered: u64) -> u64 {
    let missing = offered.saturating_sub(out.report.slots);
    match kind {
        Kind::ServeFirehose | Kind::ServePaced => {
            missing + out.ingest_errors + offered.saturating_sub(out.requests)
        }
        _ => missing,
    }
}

/// The violation line for `failed` unaccounted slots, if there are any.
fn ops_violation(failed: u64, offered: u64) -> Option<String> {
    (failed > 0).then(|| format!("{failed} of {offered} offered slots failed"))
}

/// The simulated end-to-end figures of a report.
fn sim_metrics(report: &SimReport, m: &mut BTreeMap<&'static str, f64>) {
    let slots = report.slots.max(1) as f64;
    m.insert("sim_energy_j_per_slot", report.energy.total_j() / slots);
    m.insert("sim_sla_met_frac", 1.0 - report.sla_violation_rate());
    m.insert("sim_revenue_per_kslot", 1000.0 * report.revenue() / slots);
}

/// One violation line per end-to-end metric that was not measured: absent,
/// not finite, or not above zero (every one of them is a positive quantity
/// on every workload). A per-layer metric may legitimately be absent, when
/// the workload bypasses its layer; an end-to-end metric may not.
pub fn unmeasured(metrics: &BTreeMap<&'static str, f64>) -> Vec<String> {
    catalog::END_TO_END
        .iter()
        .filter_map(|m| match metrics.get(m.name) {
            None => Some(format!("{} was not measured", m.name)),
            Some(v) if !v.is_finite() || *v <= 0.0 => {
                Some(format!("{} read {v}, not a positive number", m.name))
            }
            Some(_) => None,
        })
        .collect()
}

/// Runs one untraced run: the end-to-end metrics.
fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    let kind = args.workload.kind;
    let mut cal = Calibrator::spawn(args.scale.min(1.0))?;
    let (inputs, setup_s, slowdown) = timed_set_up(args, &mut cal)?;

    // The timed region, repeated until the budget is spent. VmHWM is
    // reset before every iteration, so each one's peak is its own.
    let t0 = Instant::now();
    let mut rss_includes_setup = false;
    let mut outs = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut slowdowns = vec![slowdown];
    while outs.is_empty()
        || keep_going(
            t0.elapsed().as_secs_f64(),
            outs.last().map_or(0.0, |o: &RunOutput| o.wall_s),
            args.seconds,
        )
    {
        rss_includes_setup |= !procfs::reset_peak_rss();
        outs.push(workloads::run(&inputs));
        peaks_mb.push(procfs::peak_rss_mb());
        slowdowns.push(cal.slowdown()?);
    }
    drop(cal);
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    // Each iteration's wall time in reference seconds: divided by the
    // mean of the slowdown readings on either side of it. The open loop
    // is bound by its schedule, not by the host, and is left as it is.
    let ref_walls: Vec<f64> = match kind {
        Kind::ServePaced => walls.clone(),
        _ => walls
            .iter()
            .zip(slowdowns.windows(2))
            .map(|(&w, s)| reference_seconds(w, s[0], s[1]))
            .collect(),
    };

    // Checks that cost time or memory run after the timed region, so
    // they can inflate neither `slots_per_s` nor `peak_rss_mb`.
    let mut violations = Vec::new();
    let hash = outs[0].report.stable_hash();
    for (i, out) in outs.iter().enumerate().skip(1) {
        let h = out.report.stable_hash();
        if h != hash {
            violations.push(format!(
                "iteration {i} hashed {h:016x}, the first {hash:016x}"
            ));
        }
    }
    if matches!(kind, Kind::ServeFirehose | Kind::ServePaced) {
        let reference = inputs.serve_reference().stable_hash();
        if reference != hash {
            violations.push(format!(
                "serve hashed {hash:016x}, the batch pipeline {reference:016x}"
            ));
        }
    }
    let offered = inputs.offered_slots();
    let failed = outs
        .iter()
        .map(|o| failed_ops(kind, o, offered))
        .max()
        .unwrap_or(0);
    violations.extend(ops_violation(failed, offered));

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", setup_s);
    metrics.insert(
        "slots_per_s",
        outs[0].report.slots as f64 / median(&ref_walls),
    );
    metrics.insert("peak_rss_mb", median(&peaks_mb));
    // Only the open loop has an arrival clock to hold a limit against.
    // Elsewhere the whole input is available at once, so the limit is
    // the end of the run: the share of offered slots decided at all.
    let decided = match kind {
        Kind::ServePaced => {
            let within: Vec<f64> = outs.iter().map(|o| within_limit_frac(o, offered)).collect();
            median(&within)
        }
        _ => 1.0 - failed.min(offered) as f64 / offered.max(1) as f64,
    };
    metrics.insert("decided_in_limit_frac", decided);
    // The simulated figures are read from one more pass, over the fixed
    // `SIM_SEED` population instead of `--seed`'s: they are a function of
    // the input, so only on a fixed input do they repeat exactly, and only
    // then can their bound be tight enough to catch a change in behaviour.
    let sim = workloads::run_unpaced(&Inputs::build(
        args.workload,
        workloads::SIM_SEED,
        args.scale,
    ))
    .report;
    sim_metrics(&sim, &mut metrics);
    violations.extend(unmeasured(&metrics));

    Ok(RunResult {
        workload: args.workload.name,
        seed: args.seed,
        traced: false,
        offered,
        hash,
        sim_hash: sim.stable_hash(),
        walls_s: walls,
        peaks_mb,
        slowdowns,
        rss_includes_setup,
        violations,
        metrics,
    })
}

/// Runs one traced run: the per-layer metrics, from an independent
/// drive of the same inputs checked against the untraced answer. One
/// pass each of the untraced call, its `*_observed` twin and the traced
/// drive already fills the time budget at full scale, so `--seconds`
/// does not repeat them.
fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let inputs = set_up(args.workload, args.seed, args.scale);
    let offered = inputs.offered_slots();

    let mut cal = Calibrator::spawn(args.scale.min(1.0))?;
    let before = cal.slowdown()?;
    let cpu0 = procfs::cpu_seconds();
    let plain = workloads::run(&inputs);
    let plain_cpu_s = procfs::cpu_seconds() - cpu0;
    let slowdown = (before + cal.slowdown()?) / 2.0;
    drop(cal);
    let observed = workloads::run_observed(&inputs);
    let mut recorder = Recorder::new();
    let drive = traced::drive(&inputs, &mut recorder);

    let mut violations = Vec::new();
    let hash = plain.report.stable_hash();
    let others = [
        ("observed run", observed.as_ref().map(|o| &o.report)),
        ("traced drive", Some(&drive.report)),
    ];
    for (what, report) in others {
        let Some(h) = report.map(SimReport::stable_hash) else {
            continue;
        };
        if h != hash {
            violations.push(format!(
                "{what} hashed {h:016x}, the untraced run {hash:016x}"
            ));
        }
    }
    let failed = failed_ops(args.workload.kind, &plain, offered);
    violations.extend(ops_violation(failed, offered));
    for (i, (dur, sum)) in spans::subtree_closure(recorder.spans(), traced::SHARD_SPAN)
        .into_iter()
        .enumerate()
    {
        if (dur as f64 - sum as f64).abs() > 0.05 * dur as f64 {
            violations.push(format!(
                "shard span {i}: self times sum to {sum} ns, the span is {dur} ns"
            ));
        }
    }

    let mut metrics = traced::layer_metrics(
        &inputs,
        &plain,
        plain_cpu_s,
        observed.as_ref(),
        &drive,
        &recorder,
    );
    metrics.insert("proc.host_slowdown", slowdown);
    probes::run(&inputs, &mut metrics);
    traced::derive_shares(&mut metrics);
    if let Err(e) = write_trace(args, &recorder) {
        violations.push(format!("trace file not written: {e}"));
    }
    Ok(RunResult {
        workload: args.workload.name,
        seed: args.seed,
        traced: true,
        offered,
        hash,
        sim_hash: 0,
        walls_s: vec![plain.wall_s],
        peaks_mb: Vec::new(),
        slowdowns: vec![slowdown],
        rss_includes_setup: false,
        violations,
        metrics,
    })
}

fn write_trace(args: &RunArgs, recorder: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = format!("{}/trace-{}.jsonl", args.out_dir, args.workload.name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let meta = format!(
        "\"workload\": {}, \"seed\": {}, \"scale\": {}",
        quote(args.workload.name),
        args.seed,
        args.scale
    );
    spans::write_jsonl(&mut file, &meta, recorder.spans())
}

/// Runs one run as `args` asks. `Err` means the run could not be made
/// at all (the calibrator child would not start or died).
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> BTreeMap<&'static str, f64> {
        catalog::END_TO_END.iter().map(|m| (m.name, 1.5)).collect()
    }

    #[test]
    fn a_missing_zero_or_non_finite_end_to_end_metric_is_a_violation() {
        assert!(unmeasured(&measured()).is_empty());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut m = measured();
            m.insert("slots_per_s", bad);
            let found = unmeasured(&m);
            assert_eq!(found.len(), 1, "{bad}");
            assert!(found[0].starts_with("slots_per_s"), "{}", found[0]);
        }
        let mut m = measured();
        m.remove("peak_rss_mb");
        m.remove("setup_s");
        assert_eq!(unmeasured(&m).len(), 2);
    }

    #[test]
    fn a_violation_fails_every_op_and_an_unset_layer_metric_reads_zero() {
        let mut r = RunResult {
            workload: "w",
            seed: 1,
            traced: true,
            offered: 40,
            hash: 0,
            sim_hash: 0,
            rss_includes_setup: false,
            walls_s: Vec::new(),
            peaks_mb: Vec::new(),
            slowdowns: Vec::new(),
            violations: Vec::new(),
            metrics: BTreeMap::new(),
        };
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0,"));
        assert!(line.contains("\"prediction.observe_ns\": {\"value\": 0, \"unit\": \"ns\"}"));
        r.violations.push("x".to_string());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 40, \"failed\": 40,"));
    }
}
