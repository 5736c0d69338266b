#!/usr/bin/env bash
# Hermetic-build gate: the whole workspace must build, test and lint
# offline (no registry, no network) from a clean checkout — and the perf
# harness must run end to end at smoke scale and emit a parseable
# snapshot (bench_report exits non-zero on any parse/shape failure).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test -q --workspace --offline
cargo clippy --workspace --offline --all-targets -- -D warnings

# The end-to-end benchmark is its own cargo workspace over the public API:
# it must keep compiling, so an API deletion that breaks it fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

smoke_json="$(mktemp /tmp/umsc-verify-bench.XXXXXX.json)"
trap 'rm -f "$smoke_json"' EXIT
UMSC_BENCH_SMOKE=1 scripts/bench.sh "$smoke_json"
[ -s "$smoke_json" ] || { echo "verify: bench smoke wrote an empty snapshot" >&2; exit 1; }
grep -q '"schema":"umsc-bench-trajectory/v1"' "$smoke_json" \
    || { echo "verify: bench snapshot missing schema marker" >&2; exit 1; }
# The polar-step kernels carry perfbench's layer name; renaming or
# deleting them would break the trajectory's link to that layer.
grep -q '"group":"linalg.polar"' "$smoke_json" \
    || { echo "verify: bench snapshot missing the linalg.polar kernels" >&2; exit 1; }

# Sparse-vs-dense scaling demo must run end to end at smoke scale (it
# re-asserts the O(nnz + n·c) memory story outside the test harness).
UMSC_BENCH_SMOKE=1 cargo run -q --release --offline --example sparse_scaling

# Allocation-regression gate: a full warm fit sizes each workspace buffer
# once; the realloc counter is a structural constant. Exceeding the
# committed baseline means per-sweep reallocation crept back into the hot
# loop.
realloc="$(cargo run -q --release --offline --example alloc_gate | sed -n 's/^workspace\.realloc=//p')"
baseline="$(tr -d '[:space:]' < scripts/alloc_baseline.txt)"
[ -n "$realloc" ] || { echo "verify: alloc_gate printed no workspace.realloc count" >&2; exit 1; }
if [ "$realloc" -gt "$baseline" ]; then
    echo "verify: workspace.realloc=$realloc exceeds committed baseline $baseline (scripts/alloc_baseline.txt)" >&2
    exit 1
fi

# Observability smoke: a traced fit must emit a parseable umsc-trace/v1
# JSONL stream, and trace-report must aggregate it without errors.
trace_dir="$(mktemp -d /tmp/umsc-verify-trace.XXXXXX)"
trap 'rm -f "$smoke_json"; rm -rf "$trace_dir"' EXIT
trace_json="$trace_dir/trace.jsonl"
cargo run -q --release --offline -p umsc-cli -- \
    generate --benchmark MSRC-v1 --out "$trace_dir/data"
UMSC_TRACE_JSON="$trace_json" cargo run -q --release --offline -p umsc-cli -- \
    cluster --data "$trace_dir/data" --verbose
[ -s "$trace_json" ] || { echo "verify: traced fit wrote no trace records" >&2; exit 1; }
grep -q '"schema":"umsc-trace/v1"' "$trace_json" \
    || { echo "verify: trace missing schema marker" >&2; exit 1; }
cargo run -q --release --offline -p umsc-cli -- trace-report --trace "$trace_json" \
    || { echo "verify: trace-report failed to parse the trace" >&2; exit 1; }

echo "verify: OK (offline build + tests + clippy + perfbench build + bench smoke + sparse-scaling smoke + alloc gate + trace smoke)"
