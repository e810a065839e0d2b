//! The online server driven by a trace's serialized event stream
//! reproduces the batch simulator's report bit for bit, because both
//! sides drive the same `ClientEngine` with the same per-shard
//! sub-streams: every smoke-scale row of `adpf_bench::baseline::ROWS`
//! runs under `Driver::Serve` too. What is left here is the wire: line
//! endings, hostile bytes and the shutdown sentinel.

#[macro_use]
mod common;

use adpf_bench::baseline::SMOKE_GOLDEN;
use adpf_core::SystemConfig;
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::PopulationConfig;

/// The smoke config and its event stream, whose served report is the
/// committed golden.
fn smoke_stream() -> (SystemConfig, Vec<u8>) {
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    (cfg, stream)
}

pinned_by! {
    serving_reproduces_the_committed_smoke_golden_at_1_2_8_threads: "smoke";
    serving_matches_batch_under_netem: "smoke-flaky", "smoke-outage", "smoke-paced";
    serving_matches_batch_with_the_marketplace_on:
        "smoke-market", "smoke-market-floored", "smoke-paced";
    serving_matches_batch_with_netem_and_marketplace_off: "smoke", "smoke-realtime", "iphone-60";
    serve_requests_equal_the_batch_slot_count: "smoke";
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
