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

use adpf_bench::cli::{CliError, ServeArgs};
use adpf_obs::render_table;
use adpf_serve::{
    serve, ServeOptions, ServeOutcome, BACKPRESSURE_METRIC, BATCH_EVENTS_METRIC,
    DECISION_LATENCY_METRIC, QUEUE_WAIT_METRIC,
};

const USAGE: &str = "\
usage: serve [--listen ADDR] [--seed N] [--threads N] [--shards N]
             [--predictor session|day-hour|tod|markov|mean|zero]
             [--planner greedy|fixed-K|none] [--radio 3g|lte|wifi]
             [--netem off|flaky|degraded|blackout]
             [--marketplace off|static|paced] [--pricing first|second]
             [--scenario mixed|churn|flashcrowd] [--scenario-seed N]
             [--metrics]

Reads a `#serve` event stream from stdin (or one TCP connection
with --listen), decides every slot in-line, and prints the final
report, requests/s, decision-latency percentiles, queue wait and
ingest batch sizes.
--scenario enables the engine's scenario layer; --scenario-seed
must match the upstream tracegen seed (defaults to --seed) so
class assignment agrees with the stream's generator.";

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
    let o = match ServeArgs::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Invalid(why)) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

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
            match run_session(&o.options, BufReader::new(&stream)) {
                Ok((out, wall_s)) => {
                    // Best-effort reply; the peer may have hung up
                    // after pushing its events.
                    let _ = (&stream).write_all(render_outcome(&out, wall_s).as_bytes());
                    Ok((out, wall_s))
                }
                err => err,
            }
        }
        None => run_session(&o.options, std::io::stdin().lock()),
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
