//! The memory rule of back-to-back serve sessions: a session costs the
//! same resident memory as the one before it. A thread binds to a glibc
//! malloc arena when it first allocates, and a thread that ends frees its
//! arena for the next new one. Were `serve` to start its workers per
//! session, the worker and a feeder thread started per session would
//! trade arenas every session, and both would grow to the worker's
//! working set; kept workers keep theirs.
//!
//! Each session here is fed through a pipe by a feeder thread of its own
//! that ends before the session does, the way the benchmark's open-loop
//! generator feeds `serve-paced`. The process's resident high-water mark
//! (`VmHWM`) only rises, so the gate compares it after the first session
//! with it after the last. Against the second session it would often see
//! little: with workers started per session, the second session's worker
//! takes the first feeder's arena and grows it, and from then on grown
//! arenas trade places, so most of the rise lands in the second or third
//! session. The binary runs without the test harness, so only the
//! sessions' own threads run: `cargo test --test serve_sessions`.

use std::io::{BufReader, Read};
use std::sync::mpsc::{sync_channel, Receiver};

use adpf_core::SystemConfig;
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::PopulationConfig;

/// `serve_heap`'s population: iPhone-shaped over two days, 2,000 users,
/// 16 shards and one worker.
const USERS: u32 = 2_000;
const DAYS: u32 = 2;
const SEED: u64 = 1;
const SHARDS: usize = 16;
const SESSIONS: usize = 8;
/// Bytes the feeder copies into each message, as the generator copies
/// each tick's lines.
const CHUNK: usize = 64 * 1024;
/// Ceiling on the high-water's rise from the first session to the last.
const MAX_RISE_KB: u64 = 4 * 1024;

/// The read half of the pipe: one message per chunk, end of input once
/// the feeder has hung up and the backlog is read.
struct Pipe {
    rx: Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos == self.chunk.len() {
            match self.rx.recv() {
                Ok(chunk) => (self.chunk, self.pos) = (chunk, 0),
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.chunk.len() - self.pos);
        out[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The process's resident high-water mark so far, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("/proc/self/status has a VmHWM line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a count of kB")
}

fn main() {
    let config = SystemConfig::prefetch_default(1);
    let pop = PopulationConfig {
        num_users: USERS,
        days: DAYS,
        ..PopulationConfig::iphone_like(SEED)
    };
    let mut stream = Vec::new();
    let trace = pop.generate();
    write_events(&trace, config.ad_refresh, &mut stream).expect("in-memory write");
    drop(trace);
    let mut opts = ServeOptions::new(config);
    opts.threads = 1;
    opts.shards = Some(SHARDS);
    opts.error_sample = 0;

    let mut hwm = Vec::new();
    for _ in 0..SESSIONS {
        let (tx, rx) = sync_channel(4);
        let out = std::thread::scope(|scope| {
            let stream = &stream;
            scope.spawn(move || {
                for chunk in stream.chunks(CHUNK) {
                    tx.send(chunk.to_vec())
                        .expect("the session reads to the end");
                }
            });
            let input = BufReader::new(Pipe {
                rx,
                chunk: Vec::new(),
                pos: 0,
            });
            serve(&opts, input).expect("a generated stream always ingests")
        });
        assert_eq!(out.ingest_errors, 0);
        hwm.push(vm_hwm_kb());
    }

    let rise = hwm[SESSIONS - 1] - hwm[0];
    println!(
        "serve_sessions: {SESSIONS} sessions of {USERS} users, {SHARDS} shards, 1 worker: \
         VmHWM kB after each {hwm:?}, +{rise} kB from the first to the last \
         (ceiling {MAX_RISE_KB})"
    );
    assert!(
        rise <= MAX_RISE_KB,
        "resident high-water rose {rise} kB over {} back-to-back sessions",
        SESSIONS - 1
    );
}
