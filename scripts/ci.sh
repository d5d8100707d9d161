#!/usr/bin/env bash
# CI gate for the Levioso workspace.
#
# The workspace is hermetic by policy (see README.md "Hermetic build
# policy"): every dependency is an in-tree path crate, so everything here
# runs with --offline and must pass on a machine with no registry access.
#
# Steps, grouped by subcommand:
#
#   lint:
#     format gate:        rustfmt --check against rustfmt.toml
#     lint gate:          clippy on every workspace target, warnings denied
#
#   test (eight steps):
#     tier-1 verify:      cargo build --release && cargo test -q — first
#                         and fast, so the basic contract fails early
#     workspace tests:    unit, property, integration and doc tests, plus
#                         one smoke run of every microbenchmark body
#     benchmark tests:    perfbench's self-tests (its own workspace, so
#                         the workspace tests above do not build it):
#                         every workload at reduced sizes prints every
#                         metric with no failed cell, tampered goldens and
#                         cache cells fail cells, and traced runs pass the
#                         self-time conservation check
#     golden gate:        the paper-tier and then the smoke-tier bench
#                         sweep checked against results/golden/paper/ and
#                         results/golden/smoke/ — exits nonzero with a
#                         per-cell diff on any drift; run with --no-cache
#                         so every cell is simulated by the core under
#                         test (a speed-up with bit-identical results
#                         keeps CORE_REV, so cells cached by the previous
#                         core would otherwise replay unchecked; cold, the
#                         316 smoke cells take ~2 s). Only the paper tier's
#                         F4 sweep simulates the largest ROB the core
#                         accepts (MAX_ROB_SIZE), which sizes its
#                         speculation masks
#     trace smoke:        levitrace traces one smoke cell, proving blame
#                         conservation + JSON round-trip
#     noninterference:    table4_noninterference fuzzes every scheme with
#                         two-run secret pairs at the smoke tier, with
#                         --no-cache for the same reason as the golden
#                         gate; then at the paper tier into target/ci_t4/,
#                         whose two reports must equal the committed
#                         results/table4_noninterference.{txt,json} byte
#                         for byte, so a faster campaign cannot move a
#                         verdict or a divergence string unnoticed
#     cache split:        asserts the golden gate printed its sweep-cache
#                         hit/miss lines (all misses under --no-cache) — a
#                         run that silently stopped reporting the split
#                         would hide cache rot
#
# No step measures host performance: that is the benchmark's job
# (perfbench/, declared by BENCHMARK.json; see perfbench/README.md). The
# CI workflow adds one short, ungated perfbench pass to its step summary.
#
# Every step's wall-clock is reported inline and written machine-readably
# to target/ci_timing.json (schema levioso-ci-timing/1), so a CI run's
# time budget can be tracked step by step across commits.
#
# Usage: scripts/ci.sh [lint|test|all]   (default: all; from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-all}
case "$mode" in
  lint|test|all) ;;
  *)
    echo "usage: scripts/ci.sh [lint|test|all]" >&2
    exit 2
    ;;
esac

start=$SECONDS
step_names=()
step_seconds=()

# run_step <label> <function>: runs the function, echoing the label first
# and recording its wall-clock for the timing report.
run_step() {
  local label="$1" fn="$2"
  local t0=$SECONDS
  echo "==> $label"
  "$fn"
  local dt=$((SECONDS - t0))
  echo "    [${dt}s] $label"
  step_names+=("$label")
  step_seconds+=("$dt")
}

# Written on every exit (including failures) so a red run still records
# how far it got and where the time went.
write_timing() {
  mkdir -p target
  {
    echo '{'
    echo '  "schema": "levioso-ci-timing/1",'
    echo "  \"mode\": \"$mode\","
    echo '  "steps": ['
    local i
    for i in "${!step_names[@]}"; do
      local comma=','
      [[ $i -eq $((${#step_names[@]} - 1)) ]] && comma=''
      echo "    { \"step\": \"${step_names[$i]}\", \"seconds\": ${step_seconds[$i]} }$comma"
    done
    echo '  ],'
    echo "  \"total_seconds\": $((SECONDS - start))"
    echo '}'
  } > target/ci_timing.json
}
trap write_timing EXIT

step_build()     { cargo build --release --offline; }
step_test()      { cargo test -q --offline; }
step_fmt()       { cargo fmt --all --check; }
step_clippy()    { cargo clippy --offline --workspace --all-targets -- -D warnings; }
step_ws_tests()  { cargo test -q --offline --workspace; }
step_perfbench() { cargo test -q --offline --manifest-path perfbench/Cargo.toml; }

step_golden_gate() {
  # Tee'd so the cache-split step below can assert on what was reported.
  cargo run -q --release --offline -p levioso-bench --bin all -- --paper --check --no-cache \
    | tee target/ci_golden_gate.log
  cargo run -q --release --offline -p levioso-bench --bin all -- --smoke --check --no-cache \
    | tee -a target/ci_golden_gate.log
}

step_trace_smoke() {
  cargo run -q --release --offline -p levioso-bench --bin levitrace -- \
    --smoke --workload filter_scan --scheme levioso --out target/ci_trace.json --quiet
}

step_noninterference() {
  cargo run -q --release --offline -p levioso-bench --bin table4_noninterference -- \
    --smoke --quiet --no-cache
  rm -rf target/ci_t4
  LEVIOSO_RESULTS_DIR=target/ci_t4 cargo run -q --release --offline -p levioso-bench \
    --bin table4_noninterference -- --paper --quiet --no-cache
  local f
  for f in table4_noninterference.txt table4_noninterference.json; do
    if ! cmp "target/ci_t4/$f" "results/$f"; then
      echo "ERROR: the paper-tier T4 report target/ci_t4/$f differs from results/$f" >&2
      exit 1
    fi
  done
}

step_cache_split() {
  local lines
  lines=$(grep -E '^sweep-cache: [0-9]+ hits, [0-9]+ misses' target/ci_golden_gate.log || true)
  if [[ $(grep -c . <<< "$lines") -ne 2 ]]; then
    echo "ERROR: golden gate did not report its sweep-cache hit/miss split for both tiers" >&2
    echo "       (expected one 'sweep-cache: N hits, M misses, ...' line per tier)" >&2
    exit 1
  fi
  sed 's/^/    golden gate reported: /' <<< "$lines"
}

if [[ "$mode" == "lint" || "$mode" == "all" ]]; then
  run_step "rustfmt, check only" step_fmt
  run_step "clippy on all workspace targets, warnings denied" step_clippy
fi

if [[ "$mode" == "test" || "$mode" == "all" ]]; then
  run_step "tier-1: cargo build --release" step_build
  run_step "tier-1: cargo test -q" step_test
  run_step "full-workspace tests" step_ws_tests
  run_step "benchmark self-tests: perfbench at reduced sizes" step_perfbench
  run_step "golden gate: paper- and smoke-tier sweeps vs results/golden/" step_golden_gate
  run_step "trace smoke: levitrace conservation + round-trip on one cell" step_trace_smoke
  run_step "noninterference gate: smoke-tier fuzz, paper-tier reports vs results/" step_noninterference
  run_step "golden gate reported its cache hit/miss split" step_cache_split
fi

echo "==> OK: ci.sh $mode green in $((SECONDS - start))s (per-step timing in target/ci_timing.json)"
