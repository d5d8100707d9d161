#!/usr/bin/env bash
# CI gate for the Levioso workspace.
#
# The workspace is hermetic by policy (see README.md "Hermetic build
# policy"): every dependency is an in-tree path crate, so everything here
# runs with --offline and must pass on a machine with no registry access.
# Every cargo build, test, clippy and run call also passes --locked: a
# step that would rewrite Cargo.lock or perfbench/Cargo.lock fails instead
# (a new dependency edge in a crate perfbench builds would otherwise
# rewrite perfbench's lockfile and still pass).
#
# Steps, grouped by subcommand:
#
#   lint:
#     format gate:        rustfmt --check against rustfmt.toml
#     lint gate:          clippy on every workspace target, warnings denied
#
#   test (six steps):
#     tier-1 verify:      cargo build --release && cargo test -q — first
#                         and fast, so the basic contract fails early
#     workspace tests:    unit, property, integration and doc tests of
#                         every crate but the root package, whose tests
#                         the tier-1 step has just run. Among them,
#                         bench's tests/cli.rs runs levitrace on one smoke
#                         cell, which fails unless both of its runs agree,
#                         blame is conserved and the trace JSON
#                         round-trips, and re-validates the trace file
#     benchmark tests:    perfbench's self-tests (its own workspace, so
#                         the workspace tests above do not build it):
#                         every workload at reduced sizes prints every
#                         metric with no failed cell, tampered goldens and
#                         cache cells fail cells, and traced runs pass the
#                         self-time conservation check
#     golden gate:        `all --paper --check` recomputes every report
#                         `all --paper` writes and compares it with the
#                         committed results/ (figure JSON cell by cell
#                         within tolerance, every other file byte for
#                         byte); then `all --smoke --check` does the same
#                         with results/golden/smoke/.
#                         Both tiers also run T4, the noninterference
#                         campaign, whose two-sided gate fails the run on
#                         a leak from a delaying scheme or on a clean
#                         unsafe baseline. Exits nonzero with one line per
#                         drifted cell or file. Runs on a cache directory
#                         emptied first (target/ci_golden_cache, outside
#                         target/sweep-cache), so it reads no cell from an
#                         earlier CI run: the workflow restores target/
#                         from its cache, and cells there replay without
#                         running the simulator (the cache namespace digests
#                         the code that decides what a cell stores: the
#                         simulator's source, the workloads and bench's
#                         cell code, not the toolchain). Each distinct
#                         cell is simulated once:
#                         a perf cell several figures share is a hit after
#                         its first simulation, and the smoke campaign's
#                         cells, the paper campaign's first programs,
#                         replay from the paper run. Only the paper tier's
#                         F4 sweep simulates the largest ROB the core
#                         accepts (MAX_ROB_SIZE), which sizes its
#                         speculation masks
#     cache split:        asserts the golden gate printed a perf and a
#                         noninterference sweep-cache hit/miss line for
#                         both tiers, each with 0 poisoned cells — a run
#                         that silently stopped reporting the split would
#                         hide cache rot
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

step_build()     { cargo build --release --offline --locked; }
step_test()      { cargo test -q --offline --locked; }
step_fmt()       { cargo fmt --all --check; }
step_clippy()    { cargo clippy --offline --locked --workspace --all-targets -- -D warnings; }
step_ws_tests()  { cargo test -q --offline --locked --workspace --exclude levioso; }
step_perfbench() { cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml; }

step_golden_gate() {
  # An emptied cache directory of its own: the gate reads no cell written
  # before this run (the CI workflow caches target/, sweep cache included).
  rm -rf target/ci_golden_cache
  # Tee'd so the cache-split step below can assert on what was reported.
  LEVIOSO_SWEEP_CACHE_DIR=target/ci_golden_cache cargo run -q --release --offline --locked \
    -p levioso-bench --bin all -- --paper --check | tee target/ci_golden_gate.log
  LEVIOSO_SWEEP_CACHE_DIR=target/ci_golden_cache cargo run -q --release --offline --locked \
    -p levioso-bench --bin all -- --smoke --check | tee -a target/ci_golden_gate.log
}

step_cache_split() {
  local lines
  lines=$(grep -E '^sweep-cache: [0-9]+ hits, [0-9]+ misses' target/ci_golden_gate.log || true)
  if [[ $(grep -c . <<< "$lines") -ne 4 || $(grep -c ' \[perf\]$' <<< "$lines") -ne 2 ||
    $(grep -c ' \[noninterference\]$' <<< "$lines") -ne 2 ]]; then
    echo "ERROR: golden gate did not report its perf and noninterference sweep-cache splits" >&2
    echo "       (expected 'sweep-cache: N hits, M misses, ... [perf]' and" >&2
    echo "       '... [noninterference]' once per tier, 4 lines)" >&2
    exit 1
  fi
  sed 's/^/    golden gate reported: /' <<< "$lines"
  if grep -vqE ' misses, 0 poisoned ' <<< "$lines"; then
    echo "ERROR: golden gate read poisoned sweep cells from its own fresh cache" >&2
    exit 1
  fi
}

if [[ "$mode" == "lint" || "$mode" == "all" ]]; then
  run_step "rustfmt, check only" step_fmt
  run_step "clippy on all workspace targets, warnings denied" step_clippy
fi

if [[ "$mode" == "test" || "$mode" == "all" ]]; then
  run_step "tier-1: cargo build --release" step_build
  run_step "tier-1: cargo test -q" step_test
  run_step "workspace tests, root package excluded" step_ws_tests
  run_step "benchmark self-tests: perfbench at reduced sizes" step_perfbench
  run_step "golden gate: paper-tier reports vs results/, smoke-tier reports vs results/golden/smoke/" step_golden_gate
  run_step "golden gate reported its cache hit/miss splits" step_cache_split
fi

echo "==> OK: ci.sh $mode green in $((SECONDS - start))s (per-step timing in target/ci_timing.json)"
