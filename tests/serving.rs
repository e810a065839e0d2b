//! Batch-as-engine-client equivalence: the online server driven by a
//! trace's serialized event stream must reproduce the batch simulator's
//! report **bit for bit** — at every thread count, under network
//! emulation, and with the marketplace on — because both sides drive
//! the same `ClientEngine` with the same per-shard sub-streams.

use adpf_bench::baseline::SMOKE_GOLDEN;
use adpf_core::{Simulator, SystemConfig};
use adpf_netem::NetemConfig;
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::PopulationConfig;

/// Serializes `pop`'s slot stream and serves it, asserting the outcome
/// equals the batch run of the same `(config, trace)` at every listed
/// thread count.
fn assert_serve_matches_batch(pop: &PopulationConfig, cfg: &SystemConfig, threads: &[usize]) {
    let trace = pop.generate();
    let batch = Simulator::run_trace(cfg, &trace, 2).0;
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    for &t in threads {
        let mut opts = ServeOptions::new(cfg.clone());
        opts.threads = t;
        let out = serve(&opts, stream.as_slice()).unwrap();
        assert_eq!(
            out.report, batch,
            "served report diverged from batch ({t} threads, {} users)",
            pop.num_users
        );
        assert_eq!(out.ingest_errors, 0, "a generated stream never rejects");
    }
}

/// The smoke config and its event stream, whose served report is the
/// committed golden.
fn smoke_stream() -> (SystemConfig, Vec<u8>) {
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    (cfg, stream)
}

#[test]
fn serving_reproduces_the_committed_smoke_golden_at_1_2_8_threads() {
    // The acceptance pin: replaying the smoke trace through the server
    // reproduces the exact report hash every other pipeline is held to.
    let (cfg, stream) = smoke_stream();
    for threads in [1usize, 2, 8] {
        let mut opts = ServeOptions::new(cfg.clone());
        opts.threads = threads;
        let out = serve(&opts, stream.as_slice()).unwrap();
        assert_eq!(
            out.report.stable_hash(),
            SMOKE_GOLDEN,
            "served smoke run drifted off the committed golden at {threads} threads"
        );
    }
}

#[test]
fn serving_matches_batch_under_netem() {
    let mut pop = PopulationConfig::small_test(31);
    pop.num_users = 50;
    let mut cfg = SystemConfig::prefetch_default(9);
    cfg.netem = NetemConfig::flaky_cellular();
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serving_matches_batch_with_the_marketplace_on() {
    let mut pop = PopulationConfig::small_test(13);
    pop.num_users = 50;
    let mut cfg = SystemConfig::prefetch_default(9);
    cfg.marketplace = adpf_auction::MarketplaceConfig::paced();
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serving_matches_batch_with_netem_and_marketplace_off() {
    // The plain configuration, distinct seeds from the smoke pin.
    let mut pop = PopulationConfig::small_test(7);
    pop.num_users = 30;
    let cfg = SystemConfig::prefetch_default(3);
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serve_requests_equal_the_batch_slot_count() {
    // Every slot line becomes exactly one decision: the server's
    // request counter must agree with the batch slot accounting.
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    let batch = Simulator::run_trace(&cfg, &trace, 2).0;
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    let out = serve(&ServeOptions::new(cfg), stream.as_slice()).unwrap();
    assert_eq!(out.requests, batch.slots);
}

#[test]
fn crlf_line_endings_and_a_missing_final_newline_serve_the_same_report() {
    let (cfg, stream) = smoke_stream();
    let text = String::from_utf8(stream).unwrap();
    let events = text.lines().count() as u64 - 1;
    let crlf = text.replace('\n', "\r\n");
    let unterminated = text.trim_end();
    for variant in [crlf.as_str(), unterminated] {
        let out = serve(&ServeOptions::new(cfg.clone()), variant.as_bytes()).unwrap();
        assert_eq!(out.report.stable_hash(), SMOKE_GOLDEN);
        assert_eq!(out.requests, events, "the final line is served too");
        assert_eq!(out.ingest_errors, 0);
    }
}

#[test]
fn hostile_bytes_are_counted_rejections_and_the_rest_is_served() {
    // Neither a line that is not UTF-8 nor ten megabytes without a
    // newline may end the session or be held in memory: each is one
    // line-numbered ingest error, and every valid event is still decided.
    let (cfg, stream) = smoke_stream();
    let header_end = stream.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut dirty = stream[..header_end].to_vec();
    dirty.resize(dirty.len() + (10 << 20), b'\xfe');
    dirty.push(b'\n');
    dirty.extend_from_slice(b"slot,0,\xff\xff,0\n");
    dirty.extend_from_slice(&stream[header_end..]);

    // Through a BufReader, as stdin and a socket deliver it: 8 KiB at a
    // time, so the flood spans over a thousand chunks.
    let input = std::io::BufReader::new(dirty.as_slice());
    let out = serve(&ServeOptions::new(cfg), input).unwrap();
    assert_eq!(out.report.stable_hash(), SMOKE_GOLDEN);
    assert_eq!(out.ingest_errors, 2);
    let rejected: Vec<(usize, &str)> = out
        .error_sample
        .iter()
        .map(|e| (e.line, e.reason.as_str()))
        .collect();
    assert_eq!(rejected, [(2, "line too long"), (3, "invalid UTF-8")]);
}

#[test]
fn shutdown_in_the_middle_of_a_chunk_leaves_the_rest_unread() {
    let (cfg, stream) = smoke_stream();
    let text = String::from_utf8(stream).unwrap();
    // Header + 99 events, the sentinel, then lines that would each be
    // rejected (time runs backwards) if the server read on.
    let mut cut: String = text.lines().take(100).flat_map(|l| [l, "\n"]).collect();
    cut.push_str("shutdown\nslot,0,0,0\nslot,0,0,0\n");
    // One 8 KiB BufReader fill holds the sentinel and what follows it.
    assert!(cut.len() < 8192);
    let mut input = std::io::BufReader::new(cut.as_bytes());
    let out = serve(&ServeOptions::new(cfg), &mut input).unwrap();
    assert_eq!(out.requests, 99);
    assert_eq!(out.ingest_errors, 0);
    // The reader is left right after the sentinel's line.
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut input, &mut rest).unwrap();
    assert_eq!(rest, "slot,0,0,0\nslot,0,0,0\n");
}
