#!/usr/bin/env bash
# Perf-trajectory harness: runs the kernel microbenches and writes the
# machine-readable snapshot BENCH_23.json (median ns per kernel, core
# count, thread count, plus observability counter records such as the
# GPI and Lanczos iteration counts and CSR row chunks) so future PRs can
# track regressions against a committed baseline. Every group is named
# after the trace span or perfbench layer it times; scripts/verify.sh
# rejects any other name.
#
# Usage:
#   scripts/bench.sh            # full sizes, writes BENCH_23.json
#   UMSC_BENCH_SMOKE=1 scripts/bench.sh out.json   # tiny sizes, custom path
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_23.json}"
jsonl="$(mktemp /tmp/umsc-bench.XXXXXX.jsonl)"
trap 'rm -f "$jsonl"' EXIT

export UMSC_BENCH_JSON="$jsonl"
cargo bench -q -p umsc-bench --offline --bench solver_steps
cargo bench -q -p umsc-bench --offline --bench eigensolvers
cargo bench -q -p umsc-bench --offline --bench op_apply
cargo bench -q -p umsc-bench --offline --bench graph_build
unset UMSC_BENCH_JSON

cargo run -q --release -p umsc-bench --offline --bin bench_report -- "$jsonl" "$out"
