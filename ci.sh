#!/usr/bin/env sh
# Local CI gate: build, test, and formatting check. Run from the repo root.
# `./ci.sh quick` runs only the gates that need the release binaries.
#
# The serving gate replays the smoke trace's event stream over stdin into
# the online `serve` binary: the final report hash must equal the smoke
# golden (the server is the batch engine behind a socket), and the
# decision-latency percentiles must have been recorded. A second replay
# goes through an odd-sized re-chunker and is held to the same golden, so
# chunk-boundary framing is gated end to end.
#
# The benchmark gate builds and tests `benchmark/`, a workspace of its own
# that the root build never sees: it binds the crates' public API
# (`Exchange::run_auction`, `SlotOffer::advance`, ...), so a signature
# change under `crates/` can break it while everything above stays green.
# Timing (throughput, latency, memory under load) is judged there, with
# `benchmark/run.sh` on alternating parent/change pairs, never here.
#
# The source rules live in one test, `crates/bench/tests/public_surface.rs`,
# which both the full run and `quick` run: every `pub` item in a library
# must be named outside it, libraries must not print (human-facing
# output belongs to the binaries; libraries speak through return values
# and the metric registry), and the knob census holds every `pub` field
# of the fifteen configuration types to one of four classes: varied (a
# named non-test file under `crates/` gives it a value other code does
# not), derived (a named function sets it: `shard_configs`, `apply_to`,
# a preset's label or switch), benchmark-bound (one value, named by
# `benchmark/src`) or per-element (link profiles, outage windows, device
# classes). A field with one value fails: it is a constant of its type.
#
# Every pinned run is a row of one table, `adpf_bench::baseline::ROWS`,
# and `baseline::check` is the only code that drives one: each row runs
# under every driver (materialized, streamed, served) at every listed
# thread count, held to its pinned report hash (any divergence means a
# change altered simulated outcomes; intentional ones update the pinned
# value with the code), to balanced books, to serve's one request per slot
# with no rejected line, and to one set of deterministic metrics across
# all its runs, served ones included. Tier 1 (`cargo test`) drives the
# smoke-scale rows from `tests/determinism.rs` at 1 and 8 workers; the
# determinism gates (`baseline --check`) run every default row at its own
# thread counts, plus one peak-RSS ceiling and a metrics-export check on
# the smoke row.
# They run last: the RSS ceiling is the only host-dependent check left,
# so a noisy host cannot mask the gates ahead of it.
#
# The simulate gate runs the `simulate` binary itself: the materialized
# and streamed pipelines must print the same reports, once on the smoke
# preset (both delivery modes, two threads) and once on a recorded CSV
# trace, with only the `trace:` line (which names the pipeline) removed.
#
# The heap gates are harness-less binaries sharing one counting
# allocator (`tests/heap/`). `tests/materialized_heap.rs` runs
# `Simulator::run_trace` on a materialized trace at two threads, five
# times, and holds the largest live-heap high-water above the input under
# 14 bytes per session of the trace (≈ 10.1 read): the run holds the
# trace once and builds no predictor for a realtime client. A prefetch
# run of the same trace, five times too, is held under 17.5 (14.4–15.2
# read): each shard's engine, predictors, event queue and scratch
# buffers go with the shard.
# `tests/stream_heap.rs` streams 750 generated users in four shards on
# one worker and holds the high-water
# under 8,800 bytes per client of a shard (≈ 6,900 read): a shard's ad
# slots are pulled from its sessions, never collected into a sorted
# vector (collecting them reads ≈ 10,350). `tests/serve_heap.rs` serves a
# generated stream of 2,000 users at 16 shards and one worker and holds
# the high-water above the input under 8,300 bytes per client: each
# engine's event queue is one heap, and the per-client slot-time, report,
# outbox and cancellation queues share slabs, so the session holds the
# entries live at its peak, not each client's high-water mark (restoring
# the queue's calendar ring reads ≈ 8,890). `tests/trace_heap.rs` builds
# traces, whole on two threads (12,000 users) and as 16-way shards of
# 3,000 users, plain, mixed-scenario and flash-crowd, and holds each
# build's high-water to 24.8 bytes per session of the built trace
# (20.2–22.1 read, of which 16 is the session itself): generation
# appends into one reserved vector, a scenario reuses its base trace's
# vector, and `Trace::new` sorts through a 4-byte index, so a build holds
# the trace once (a stable sort's scratch reads 32–35, and per-block
# vectors, their concatenation or a scenario's second vector each add
# another 16).
#
# The sweep gate runs every experiment table at quick scale (~14 s on
# 2 vCPUs per run): every table is held to its checks, the claims its
# rows must show, and `experiments` exits non-zero naming any check that
# fails. No table reads the host, so the tables are run at two workers
# and again at one, and the two stdouts must be byte-identical: threads
# are pure scheduling in every table. Tier 1 holds the same checks at
# micro scale and pins each table to a digest (tests/experiments.rs).
set -eux

# Held to `adpf_bench::baseline::SMOKE_GOLDEN` by a unit test there.
SERVE_GOLDEN="report-hash: ba08fcf9274d6de0"

marketplace_gates() {
    # The reactive-marketplace suites: adversarial exchange properties and
    # pacing convergence to the analytic optimum. The marketplace's pinned
    # runs are rows, which `determinism_gates` covers.
    cargo test -q --release -p adpf-auction \
        --test prop_marketplace --test convergence
}

placement_gates() {
    # The placement kernel held bit for bit to what it replaced: running
    # Poisson tails against the closed form and the memoizing cache, and
    # the engine's one-pass pool build in lockstep with the cached
    # gather/rate/score reference, plus the planner contract that makes
    # leaving zero-probability candidates out exact. Likewise the event
    # queue and the slab queues each against an O(n) reference (tier 1
    # runs only the root package's tests). The auction's bid loop in place, in
    # lockstep with the eager reference it replaced
    # (`kernel_matches_the_eager_reference`). And auctions
    # sampled ahead, in lockstep with the exchange sampling them itself
    # (one exchange, and several sharing one worker's sampler),
    # allocation-free on the helper thread, and held to the smoke goldens
    # and to serve == batch with the sampler forced on and off whatever
    # the host's core count.
    cargo test -q --release -p adpf-overbooking --test prop_availability
    cargo test -q --release -p adpf-core placement_
    cargo test -q --release -p adpf-desim --test prop_queue --test prop_slab_queues
    cargo test -q --release -p adpf-auction kernel_
    cargo test -q --release -p adpf-auction ahead_
    cargo test -q --release -p adpf-core ahead_
    cargo test -q --release -p adpf-serve ahead_
}

determinism_gates() {
    ./target/release/baseline --check --metrics-out target/obs_smoke_metrics.jsonl
}

perf_serve() {
    # Closed loop over stdin: generate the smoke event stream, serve it,
    # and hold the served report to the shared golden. The latency line
    # must carry a recorded p99 (every request lands in the histogram).
    ./target/release/tracegen --preset small --seed 777 --events \
        | ./target/release/serve --seed 5 --threads 2 > target/serve_smoke.out
    cat target/serve_smoke.out
    test "$(grep '^report-hash:' target/serve_smoke.out)" = "$SERVE_GOLDEN"
    grep -q '^serve: latency_us p50=[0-9]* p95=[0-9]* p99=[0-9]*$' target/serve_smoke.out
    grep -q '^serve: .*ingest_errors=0' target/serve_smoke.out
    # The same stream re-written 61 bytes at a time, so the server's
    # reads end in the middle of lines: chunk-boundary framing must not
    # change a bit of the report.
    ./target/release/tracegen --preset small --seed 777 --events \
        | dd bs=61 status=none \
        | ./target/release/serve --seed 5 --threads 2 > target/serve_smoke_rechunked.out
    test "$(grep '^report-hash:' target/serve_smoke_rechunked.out)" = "$SERVE_GOLDEN"
    grep -q '^serve: .*ingest_errors=0' target/serve_smoke_rechunked.out
}

simulate_gate() {
    sim=./target/release/simulate
    $sim --preset small --mode both --threads 2 > target/simulate_smoke.out
    $sim --preset small --mode both --threads 2 --stream > target/simulate_smoke_stream.out
    grep -q '^energy savings' target/simulate_smoke.out
    ./target/release/tracegen --preset small --seed 777 --out target/t.csv
    $sim --trace target/t.csv --mode prefetch > target/simulate_csv.out
    $sim --trace target/t.csv --mode prefetch --stream > target/simulate_csv_stream.out
    grep -q '^prefetch ' target/simulate_csv.out
    for run in smoke csv; do
        grep -v '^trace:' "target/simulate_$run.out" > "target/simulate_$run.cmp"
        grep -v '^trace:' "target/simulate_${run}_stream.out" | cmp - "target/simulate_$run.cmp"
    done
}

sweep_gate() {
    ./target/release/experiments all --threads 2 > target/experiments_t2.out
    ./target/release/experiments all --threads 1 > target/experiments_t1.out
    cmp target/experiments_t2.out target/experiments_t1.out
}

benchmark_gate() {
    cargo test --offline --manifest-path benchmark/Cargo.toml
    benchmark/run.sh --lint
}

if [ "${1:-}" = "quick" ]; then
    cargo build --release -p adpf-bench
    cargo test -q -p adpf-bench --test public_surface
    cargo test -q --release --test materialized_heap --test serve_heap --test stream_heap \
        --test trace_heap
    # Tier 1 runs only the root package's tests: the predictor families'
    # unit tests, cold-start cases and pinned digests run here, and so do
    # the trace crate's, the slot stream held to the push-and-sort it
    # replaced (`prop_slots`) among them.
    cargo test -q --release -p adpf-prediction
    cargo test -q --release -p adpf-traces
    perf_serve
    simulate_gate
    marketplace_gates
    placement_gates
    determinism_gates
    exit 0
fi

cargo build --release --workspace
cargo test -q --workspace --release
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
perf_serve
simulate_gate
placement_gates
sweep_gate
benchmark_gate
determinism_gates
