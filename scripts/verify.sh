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
# Every intra-doc link must resolve, so a renamed or deleted item cannot
# leave a dangling doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The end-to-end benchmark is its own cargo workspace over the public API:
# it must keep compiling, so an API deletion that breaks it fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

smoke_json="$(mktemp /tmp/umsc-verify-bench.XXXXXX.json)"
trap 'rm -f "$smoke_json"' EXIT
UMSC_BENCH_SMOKE=1 scripts/bench.sh "$smoke_json"
[ -s "$smoke_json" ] || { echo "verify: bench smoke wrote an empty snapshot" >&2; exit 1; }
grep -q '"schema":"umsc-bench-trajectory/v1"' "$smoke_json" \
    || { echo "verify: bench snapshot missing schema marker" >&2; exit 1; }
# Every bench group carries the name of the phase it times — a `span!`
# name in the non-test source of crates/*/src (each file up to its first
# `#[cfg(test)]`, comment lines skipped) or a BENCHMARK.json per-layer name
# without its `_s` suffix — so a trajectory regression points at a phase.
phases="$( { find crates -path '*/src/*' -name '*.rs' -print0 \
                 | xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 }
                                 !skip && !/^[[:space:]]*\/\// { print }' \
                 | grep -oE 'span!\("[^"]+"' | sed 's/^span!("//; s/"$//'
             sed -n '/"per_layer"/,/\]/p' BENCHMARK.json \
                 | grep -oE '"name": *"[^"]+"' | sed 's/.*"\([^"]*\)"$/\1/; s/_s$//'; } | sort -u)"
for group in $(grep -oE '"group":"[^"]*"' "$smoke_json" | sed 's/^"group":"//; s/"$//' | sort -u); do
    grep -qxF "$group" <<< "$phases" \
        || { echo "verify: bench group '$group' is neither a span nor a perfbench layer" >&2; exit 1; }
done
# The polar-step, eigensolve, Gram-tile and anchor-graph kernels must
# stay in the trajectory.
for group in linalg.polar lanczos.solve graph.distances graph.anchor_select graph.anchor_weights; do
    grep -q "\"group\":\"$group\"" "$smoke_json" \
        || { echo "verify: bench snapshot missing the $group kernels" >&2; exit 1; }
done

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

# A1 drift gate: the quick-profile ablation table (about 18 s on 2 cores)
# must match crates/bench/tests/ablation_quick.json in every field but
# `seconds`. The test's module docs give the re-record command.
cargo run -q --release --offline -p umsc-bench --bin tables -- ablation > /dev/null
cargo test -q --offline -p umsc-bench --test ablation_drift -- --ignored

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

echo "verify: OK (offline build + tests + clippy + rustdoc + perfbench build + bench smoke + sparse-scaling smoke + alloc gate + A1 drift gate + trace smoke)"
