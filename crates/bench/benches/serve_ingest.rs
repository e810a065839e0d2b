//! Microbenchmarks of the serve ingest layer on its own: cutting and
//! parsing the wire bytes (`Framer`), and handing events across the
//! bounded swap `Mailbox`. The engine is not involved, so these are the
//! per-request costs the batched ingest path leaves between the
//! transport and `ClientEngine::on_slot`.

use adpf_core::SystemConfig;
use adpf_serve::{write_events, Framer, Mailbox};
use adpf_traces::PopulationConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// The smoke event stream ci.sh replays through the `serve` binary.
fn smoke_stream() -> Vec<u8> {
    let trace = PopulationConfig::small_test(777).generate();
    let mut stream = Vec::new();
    write_events(
        &trace,
        SystemConfig::prefetch_default(5).ad_refresh,
        &mut stream,
    )
    .expect("in-memory write");
    stream
}

fn bench_frame_parse(c: &mut Criterion) {
    let stream = smoke_stream();
    let mut g = c.benchmark_group("serve_ingest");
    g.throughput(Throughput::Bytes(stream.len() as u64));
    // One chunk (an in-memory replay), a `BufReader`'s 8 KiB fills (stdin,
    // a socket), and ci.sh's odd-sized re-chunker: every line of the last
    // crosses a chunk boundary and goes through the carry buffer.
    for chunk in [stream.len(), 8192, 61] {
        g.bench_with_input(
            BenchmarkId::new("frame_parse", chunk),
            &chunk,
            |b, &chunk| {
                b.iter(|| {
                    let mut framer = Framer::new();
                    let mut records = 0u64;
                    for piece in stream.chunks(chunk) {
                        let mut pos = 0;
                        while let Some(parsed) = framer.next_record(piece, &mut pos) {
                            black_box(parsed);
                            records += 1;
                        }
                    }
                    black_box(framer.finish());
                    records
                });
            },
        );
    }
    g.finish();
}

fn bench_mailbox(c: &mut Criterion) {
    // A routed event is 40 bytes. One uncontended push + take per batch:
    // the lock, the append, the swap and both notifications, without a
    // second thread's wake-up latency.
    type Item = [u64; 5];
    let mut g = c.benchmark_group("serve_ingest");
    for batch in [16usize, 16_384] {
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_with_input(
            BenchmarkId::new("mailbox_round_trip", batch),
            &batch,
            |b, &batch| {
                let mailbox: Mailbox<Item> = Mailbox::new(65_536);
                let mut outbox: Vec<Item> = Vec::new();
                let mut taken: Vec<Item> = Vec::new();
                b.iter(|| {
                    outbox.extend((0..batch as u64).map(|i| [i; 5]));
                    mailbox.push(&mut outbox).expect("open mailbox");
                    assert!(mailbox.take(&mut taken));
                    black_box(taken.len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_frame_parse, bench_mailbox);
criterion_main!(benches);
