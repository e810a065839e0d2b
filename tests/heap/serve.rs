//! One serve session of a generated population under the counting
//! allocator of `heap/`, shared by the `serve_heap` and `serve_slope`
//! gates.

use adpf_core::SystemConfig;
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::PopulationConfig;

use crate::heap;

/// The population seed.
const SEED: u64 = 1;

/// What one session read.
pub struct Reading {
    /// Requests served: every ad slot of the trace.
    pub requests: u64,
    /// The session's live-heap high-water above its input, in bytes per
    /// client.
    pub per_client: usize,
}

/// Serves `users` iPhone-shaped users over `days` days at `shards`
/// shards and one worker, and reads the session's high-water above the
/// input (the event stream). Panics unless every slot was served.
pub fn serve_once(users: u32, days: u32, shards: usize) -> Reading {
    let config = SystemConfig::prefetch_default(1);
    let pop = PopulationConfig {
        num_users: users,
        days,
        ..PopulationConfig::iphone_like(SEED)
    };
    let mut stream = Vec::new();
    let trace = pop.generate();
    write_events(&trace, config.ad_refresh, &mut stream).expect("in-memory write");
    let slots = trace.ad_slots(config.ad_refresh).len() as u64;
    drop(trace);
    let mut opts = ServeOptions::new(config);
    opts.threads = 1;
    opts.shards = Some(shards);
    opts.error_sample = 0;

    let input = heap::start();
    let out = serve(&opts, stream.as_slice()).expect("a generated stream always ingests");
    let above = heap::high_water_above(input);
    assert_eq!((out.requests, out.ingest_errors), (slots, 0));
    assert_eq!(out.report.slots(), slots);
    Reading {
        requests: slots,
        per_client: above / users as usize,
    }
}
