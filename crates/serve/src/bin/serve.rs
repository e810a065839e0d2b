//! Online ad server over stdin or a TCP socket.
//!
//! Reads a newline-delimited serve stream (see `adpf_serve::protocol`),
//! decides every ad slot in-line with the same sharded decision engine
//! the batch simulator uses, and on end of stream (EOF or a `shutdown`
//! line) prints the final report, throughput, and decision-latency
//! percentiles, with the queueing share of that latency and the ingest
//! batch sizes on a line of their own. Replaying a trace's event stream
//! reproduces the batch simulator's report hash exactly:
//!
//! ```text
//! tracegen --preset small --seed 777 --events | serve --seed 5 --threads 2
//! serve --listen 127.0.0.1:9137 --seed 5 &
//! tracegen --preset small --seed 777 --events | nc 127.0.0.1:9137
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Instant;

use adpf_auction::{MarketplaceConfig, PricingRule};
use adpf_core::scenario::ScenarioSpec;
use adpf_core::{PlannerKind, SystemConfig};
use adpf_energy::profiles;
use adpf_netem::NetemConfig;
use adpf_obs::render_table;
use adpf_prediction::PredictorKind;
use adpf_serve::{
    serve, ServeOptions, ServeOutcome, BACKPRESSURE_METRIC, BATCH_EVENTS_METRIC,
    DECISION_LATENCY_METRIC, QUEUE_WAIT_METRIC,
};

struct Opts {
    listen: Option<String>,
    seed: u64,
    threads: usize,
    shards: Option<usize>,
    predictor: Option<String>,
    planner: Option<String>,
    radio: Option<String>,
    netem: Option<String>,
    marketplace: Option<String>,
    pricing: Option<String>,
    scenario: Option<String>,
    scenario_seed: Option<u64>,
    metrics: bool,
}

fn usage() {
    eprintln!(
        "usage: serve [--listen ADDR] [--seed N] [--threads N] [--shards N]\n\
         \x20            [--predictor session|day-hour|tod|markov|mean|zero]\n\
         \x20            [--planner greedy|fixed-K|none] [--radio 3g|lte|wifi]\n\
         \x20            [--netem off|flaky|degraded|blackout]\n\
         \x20            [--marketplace off|static|paced] [--pricing first|second]\n\
         \x20            [--scenario mixed|churn|flashcrowd] [--scenario-seed N]\n\
         \x20            [--metrics]\n\
         \n\
         Reads a `#serve` event stream from stdin (or one TCP connection\n\
         with --listen), decides every slot in-line, and prints the final\n\
         report, requests/s, decision-latency percentiles, queue wait and\n\
         ingest batch sizes.\n\
         --scenario enables the engine's scenario layer; --scenario-seed\n\
         must match the upstream tracegen seed (defaults to --seed) so\n\
         class assignment agrees with the stream's generator."
    );
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        listen: None,
        seed: 5,
        threads: 2,
        shards: None,
        predictor: None,
        planner: None,
        radio: None,
        netem: None,
        marketplace: None,
        pricing: None,
        scenario: None,
        scenario_seed: None,
        metrics: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--metrics" {
            o.metrics = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err("help".into());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        match flag.as_str() {
            "--listen" => o.listen = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--threads" => {
                o.threads = value
                    .parse()
                    .map_err(|_| format!("bad --threads `{value}`"))?;
                if o.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--shards" => {
                o.shards = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --shards `{value}`"))?,
                )
            }
            "--predictor" => o.predictor = Some(value.clone()),
            "--planner" => o.planner = Some(value.clone()),
            "--radio" => o.radio = Some(value.clone()),
            "--netem" => o.netem = Some(value.clone()),
            "--marketplace" => o.marketplace = Some(value.clone()),
            "--pricing" => o.pricing = Some(value.clone()),
            "--scenario" => o.scenario = Some(value.clone()),
            "--scenario-seed" => {
                o.scenario_seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --scenario-seed `{value}`"))?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

/// The serving config: batch `prefetch_default(seed)` with only the
/// explicitly given overrides applied, so an unflagged `serve --seed 5`
/// runs the exact config behind the batch smoke golden.
fn build_config(o: &Opts) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::prefetch_default(o.seed);
    if let Some(p) = &o.predictor {
        cfg.predictor = PredictorKind::parse(p)?;
        if matches!(cfg.predictor, PredictorKind::Oracle) {
            return Err(
                "`--predictor oracle` needs the future slot stream; the online server \
                 cannot provide it"
                    .into(),
            );
        }
    }
    if let Some(p) = &o.planner {
        cfg.planner = PlannerKind::parse(p)?;
    }
    if let Some(r) = &o.radio {
        cfg.radio = profiles::by_name(r)?;
    }
    if let Some(n) = &o.netem {
        cfg.netem = NetemConfig::parse_preset(n)?;
    }
    if let Some(m) = &o.marketplace {
        cfg.marketplace = MarketplaceConfig::parse_regime(m)?;
    }
    if let Some(p) = &o.pricing {
        if !cfg.marketplace.enabled {
            return Err("--pricing requires a --marketplace regime other than `off`".into());
        }
        cfg.marketplace.pricing = PricingRule::parse(p)?;
    }
    if let Some(name) = &o.scenario {
        let spec = ScenarioSpec::parse_preset(name)?;
        // Class/region assignment keys on the *trace* seed: the stream
        // was generated by tracegen with its own seed, which the caller
        // echoes here (defaulting to the config seed for the common
        // same-seed pipeline). An explicit --netem, `off` included, wins
        // over the scenario's binding, as in the batch `simulate` CLI.
        let explicit_netem = o.netem.is_some().then(|| cfg.netem.clone());
        spec.apply_to(&mut cfg, o.scenario_seed.unwrap_or(o.seed));
        if let Some(netem) = explicit_netem {
            cfg.netem = netem;
        }
    } else if o.scenario_seed.is_some() {
        return Err("--scenario-seed requires --scenario".into());
    }
    Ok(cfg)
}

/// The session summary every sink (stdout, the TCP peer) receives.
fn render_outcome(out: &ServeOutcome, wall_s: f64) -> String {
    let rps = if wall_s > 0.0 {
        out.requests as f64 / wall_s
    } else {
        0.0
    };
    let (p50, p95, p99) = match out.registry.histogram_snapshot(DECISION_LATENCY_METRIC) {
        Some(h) => (
            h.quantile_upper_bound(0.50),
            h.quantile_upper_bound(0.95),
            h.quantile_upper_bound(0.99),
        ),
        None => (0, 0, 0),
    };
    let mut s = String::new();
    s.push_str(&format!(
        "serve: users={} horizon_ms={} shards={} threads={}\n",
        out.header.users, out.header.horizon_ms, out.shards, out.threads
    ));
    s.push_str(&out.report.summary());
    s.push_str(&format!(
        "\nserve: requests={} ingest_errors={} wall_s={:.4} requests_per_sec={:.0}\n",
        out.requests, out.ingest_errors, wall_s, rps
    ));
    s.push_str(&format!(
        "serve: latency_us p50={p50} p95={p95} p99={p99}\n"
    ));
    // How much of that latency was queueing, and how the ingest batched.
    let wait = out.registry.histogram_snapshot(QUEUE_WAIT_METRIC);
    let batches = out.registry.histogram_snapshot(BATCH_EVENTS_METRIC);
    let (wait, batches) = (wait.unwrap_or_default(), batches.unwrap_or_default());
    s.push_str(&format!(
        "serve: queue_wait_us p50={} p99={} batches={} batch_events mean={:.0} max={} \
         router_backpressure={}\n",
        wait.quantile_upper_bound(0.50),
        wait.quantile_upper_bound(0.99),
        batches.count(),
        batches.mean(),
        batches.max(),
        out.registry.counter_value(BACKPRESSURE_METRIC),
    ));
    s.push_str(&format!("report-hash: {:016x}\n", out.report.stable_hash()));
    s
}

fn run_session<R: BufRead>(opts: &ServeOptions, input: R) -> Result<(ServeOutcome, f64), String> {
    let t0 = Instant::now();
    let out = serve(opts, input).map_err(|e| e.to_string())?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(reason) => {
            if reason != "help" {
                eprintln!("{reason}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let cfg = match build_config(&o) {
        Ok(c) => c,
        Err(reason) => {
            eprintln!("{reason}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let mut sopts = ServeOptions::new(cfg);
    sopts.threads = o.threads;
    sopts.shards = o.shards;

    let session = match &o.listen {
        Some(addr) => {
            // One connection per process invocation: accept, serve the
            // stream, answer the final report on the same socket.
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot listen on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("serve: listening on {addr}");
            let (stream, peer) = match listener.accept() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("serve: connection from {peer}");
            match run_session(&sopts, BufReader::new(&stream)) {
                Ok((out, wall_s)) => {
                    // Best-effort reply; the peer may have hung up
                    // after pushing its events.
                    let _ = (&stream).write_all(render_outcome(&out, wall_s).as_bytes());
                    Ok((out, wall_s))
                }
                err => err,
            }
        }
        None => run_session(&sopts, std::io::stdin().lock()),
    };

    match session {
        Ok((out, wall_s)) => {
            print!("{}", render_outcome(&out, wall_s));
            for e in &out.error_sample {
                eprintln!("{e}");
            }
            if out.ingest_errors > out.error_sample.len() as u64 {
                eprintln!(
                    "… and {} more ingest errors",
                    out.ingest_errors - out.error_sample.len() as u64
                );
            }
            if o.metrics {
                // The simulation's metrics, then the serving layer's.
                let mut all = out.report.metrics.clone();
                all.merge(&out.registry);
                println!("metrics:\n{}", render_table(&all));
            }
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("{reason}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(args: &str) -> SystemConfig {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        build_config(&parse_args(&args).unwrap()).unwrap()
    }

    #[test]
    fn explicit_netem_wins_over_the_scenario_binding() {
        // flashcrowd binds flaky+outage; an explicit --netem, `off`
        // included, must override it, while no flag accepts the binding.
        assert!(config("--scenario flashcrowd")
            .netem
            .name
            .contains("outage"));
        let off = config("--scenario flashcrowd --netem off");
        assert!(!off.netem.enabled);
        assert!(
            off.scenario.enabled,
            "the rest of the scenario still applies"
        );
        let degraded = config("--scenario flashcrowd --netem degraded");
        assert_eq!(degraded.netem.name, "degraded");
    }
}
