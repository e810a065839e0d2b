#!/usr/bin/env bash
# The benchmark's one command. Run from anywhere; works from the repo root.
#
#   benchmark/run.sh                 build, then every workload untraced
#                                    (medians over 3 runs) and once traced
#   benchmark/run.sh --lint          cargo fmt --check + clippy -D warnings
#                                    on the benchmark crate
#   benchmark/run.sh ARGS...         build, then `bench ARGS...` — the form
#                                    BENCHMARK.json's command uses:
#                                    --workload W --seed S --seconds T --trace 0|1
#
# Every form prints each metric by name with its unit and exits non-zero
# if any correctness check failed.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml

# The benchmark is a workspace of its own and does not inherit the root
# [profile.release]; a later `lto` or `codegen-units` change at the root
# would otherwise go unmeasured. Fail until the two tables agree.
profile_release() {
    awk '/^\[/ { on = ($0 == "[profile.release]") ; next }
         on && !/^[[:space:]]*(#|$)/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ ! -f Cargo.toml ]; then
    echo "benchmark/run.sh: no Cargo.toml beside benchmark/: nothing to measure" >&2
    exit 1
fi
if [ "$(profile_release Cargo.toml)" != "$(profile_release "$manifest")" ]; then
    echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and $manifest" >&2
    exit 1
fi

if [ "${1-}" = "--lint" ]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
    exit 0
fi

cargo build --release --offline --quiet --manifest-path "$manifest"
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"

if [ "$#" -eq 0 ]; then
    exec "$bench" run --traced
fi
exec "$bench" "$@"
