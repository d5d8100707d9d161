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
#   test:
#     tier-1 verify:      cargo build --release && cargo test -q — first
#                         and fast, so the basic contract fails early
#     workspace tests:    unit, property, integration, and doc tests
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
#     throughput check:   perfcheck validates the snapshot the golden gate
#                         just wrote, including that busy-time samples came
#                         only from freshly computed cells
#     trace smoke:        levitrace traces one smoke cell, proving blame
#                         conservation + JSON round-trip
#     noninterference:    table4_noninterference fuzzes every scheme with
#                         two-run secret pairs at the smoke tier, with
#                         --no-cache for the same reason as the golden gate
#     cache split:        asserts the golden gate printed its sweep-cache
#                         hit/miss lines (all misses under --no-cache) — a
#                         run that silently stopped reporting the split
#                         would hide cache rot
#     serve smoke:        starts `all --smoke --serve` once, submits the
#                         smoke golden check twice via levq, and asserts
#                         the second response is answered entirely from
#                         the in-memory hot tier (nonzero l1_hits, zero
#                         disk reads, zero recomputes) with report bytes
#                         identical to the first; both request latencies
#                         land in target/ci_timing.json. While the server
#                         is still warm, `levtop --once --json` captures a
#                         status snapshot (target/ci_levtop.json) whose
#                         registry counters must reconcile exactly with
#                         the summed per-response cache splits, and the
#                         mirrored METRICS_run.json must carry the
#                         levioso-metrics/1 schema tag
#     run ledger:         one measured smoke run appends this commit's
#                         levioso-ledger/1 record to results/ledger.jsonl
#                         (persisted across CI runs by the workflow cache),
#                         then `levhist --check` gates the perf trajectory
#                         against the robust baseline — with a negative
#                         test proving the gate fires on an injected
#                         synthetic regression, and a vacuity test proving
#                         a thin history exits 4 instead of passing
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
step_doc_tests() { cargo test -q --offline --workspace --doc; }
step_perfbench() { cargo test -q --offline --manifest-path perfbench/Cargo.toml; }

step_golden_gate() {
  # Tee'd so the cache-split step below can assert on what was reported.
  # Smoke runs last, so the throughput snapshot perfcheck reads is still
  # the smoke tier's.
  cargo run -q --release --offline -p levioso-bench --bin all -- --paper --check --no-cache \
    | tee target/ci_golden_gate.log
  cargo run -q --release --offline -p levioso-bench --bin all -- --smoke --check --no-cache \
    | tee -a target/ci_golden_gate.log
}

step_perfcheck() { cargo run -q --release --offline -p levioso-bench --bin perfcheck; }

step_trace_smoke() {
  cargo run -q --release --offline -p levioso-bench --bin levitrace -- \
    --smoke --workload filter_scan --scheme levioso --out target/ci_trace.json --quiet
}

step_noninterference() {
  cargo run -q --release --offline -p levioso-bench --bin table4_noninterference -- \
    --smoke --quiet --no-cache
}

step_serve_smoke() {
  local jobs=target/ci_jobs resdir=target/ci_serve_results
  rm -rf "$jobs" "$resdir"
  cargo build -q --release --offline -p levioso-bench
  LEVIOSO_RESULTS_DIR="$resdir" target/release/all --smoke --serve "$jobs" \
    2> target/ci_serve_server.log &
  local server=$!
  # Wait until the server is polling: a request written before its start
  # would be skipped as stale by design.
  local i
  for i in $(seq 1 100); do [[ -d "$jobs" ]] && break; sleep 0.1; done
  sleep 0.5
  local id
  for id in ci-cold ci-warm; do
    if ! target/release/levq "$jobs" check --smoke --id "$id" --timeout-secs 300 \
        > "target/ci_serve_$id.out" 2> "target/ci_serve_$id.err"; then
      kill "$server" 2>/dev/null || true
      echo "ERROR: served check request $id failed:" >&2
      cat "target/ci_serve_$id.err" >&2
      exit 1
    fi
  done
  # Introspection while the server is still warm: one status snapshot via
  # the dashboard's scripting mode.
  if ! target/release/levtop "$jobs" --smoke --once --json --timeout-secs 60 \
      > target/ci_levtop.json 2> target/ci_levtop.err; then
    kill "$server" 2>/dev/null || true
    echo "ERROR: serve smoke: levtop --once --json failed:" >&2
    cat target/ci_levtop.err >&2
    exit 1
  fi
  if ! target/release/levq "$jobs" shutdown --id ci-bye --timeout-secs 60 >/dev/null 2>&1; then
    kill "$server" 2>/dev/null || true
    echo "ERROR: serve smoke: shutdown request failed" >&2
    exit 1
  fi
  if ! wait "$server"; then
    echo "ERROR: serve smoke: server exited nonzero (see target/ci_serve_server.log)" >&2
    exit 1
  fi
  if ! cmp -s target/ci_serve_ci-cold.out target/ci_serve_ci-warm.out; then
    echo "ERROR: serve smoke: warm report bytes differ from the cold report" >&2
    exit 1
  fi
  local warm_line
  warm_line=$(grep -E '^levq: id=ci-warm' target/ci_serve_ci-warm.err)
  echo "    warm request: $warm_line"
  if ! grep -qE 'l1_hits=[1-9][0-9]* l2_hits=0 misses=0' <<< "$warm_line"; then
    echo "ERROR: serve smoke: warm request was not answered entirely from the memory tier" >&2
    exit 1
  fi
  # Fold both request latencies into the timing report (fractional seconds,
  # straight from the responses' wall_seconds).
  local cold_s warm_s
  cold_s=$(sed -nE 's/^levq: id=ci-cold .*wall_seconds=([0-9.]+).*/\1/p' target/ci_serve_ci-cold.err)
  warm_s=$(sed -nE 's/^levq: id=ci-warm .*wall_seconds=([0-9.]+).*/\1/p' target/ci_serve_ci-warm.err)
  step_names+=("serve smoke: cold levq check" "serve smoke: warm levq check")
  step_seconds+=("${cold_s:-0}" "${warm_s:-0}")
  # The status snapshot's registry counters and the per-response splits
  # are the same atomics: the cumulative bench-cache counters must equal
  # the cold+warm splits summed, or the telemetry is lying.
  local reg_l1 reg_l2 reg_miss
  reg_l1=$(sed -nE 's/.*"sweep_cache_l1_hits_total\{cache=bench\}": "([0-9]+)".*/\1/p' target/ci_levtop.json)
  reg_l2=$(sed -nE 's/.*"sweep_cache_l2_hits_total\{cache=bench\}": "([0-9]+)".*/\1/p' target/ci_levtop.json)
  reg_miss=$(sed -nE 's/.*"sweep_cache_misses_total\{cache=bench\}": "([0-9]+)".*/\1/p' target/ci_levtop.json)
  if [[ -z "$reg_l1" || -z "$reg_l2" || -z "$reg_miss" ]]; then
    echo "ERROR: serve smoke: status snapshot is missing the bench cache counters" >&2
    exit 1
  fi
  local sum_l1=0 sum_l2=0 sum_miss=0 f
  for f in target/ci_serve_ci-cold.err target/ci_serve_ci-warm.err; do
    sum_l1=$((sum_l1 + $(sed -nE 's/.* l1_hits=([0-9]+).*/\1/p' "$f")))
    sum_l2=$((sum_l2 + $(sed -nE 's/.* l2_hits=([0-9]+).*/\1/p' "$f")))
    sum_miss=$((sum_miss + $(sed -nE 's/.* misses=([0-9]+).*/\1/p' "$f")))
  done
  if [[ "$reg_l1" -ne "$sum_l1" || "$reg_l2" -ne "$sum_l2" || "$reg_miss" -ne "$sum_miss" ]]; then
    echo "ERROR: serve smoke: status snapshot (l1=$reg_l1 l2=$reg_l2 miss=$reg_miss) does not" >&2
    echo "       reconcile with the summed response splits (l1=$sum_l1 l2=$sum_l2 miss=$sum_miss)" >&2
    exit 1
  fi
  echo "    status snapshot reconciles: l1=$reg_l1 l2=$reg_l2 misses=$reg_miss"
  # Every served request refreshes the metrics mirror; it must be there
  # and schema-tagged.
  if ! grep -q '"schema": "levioso-metrics/1"' "$resdir/METRICS_run.json"; then
    echo "ERROR: serve smoke: $resdir/METRICS_run.json missing or not schema-tagged" >&2
    exit 1
  fi
  # The server's results snapshots (cumulative throughput split + the
  # latency book + the metrics mirror) must satisfy perfcheck too.
  LEVIOSO_RESULTS_DIR="$resdir" target/release/perfcheck
}

# Run ledger + sentinel. Every measured run in this script has already
# appended a levioso-ledger/1 record to results/ledger.jsonl (the golden
# gate when its cells computed fresh, the serve session at shutdown into
# its own results dir); here the trajectory is gated:
#
#   1. append one fresh measured smoke run for *this* commit — the
#      sentinel judges the newest point, so the candidate must be ours;
#      on a fresh clone, seed up to two more runs so the check is not
#      vacuous (CI persists the ledger across runs, so steady state
#      appends exactly one);
#   2. `levhist --check` must pass (exit 0) on the real history;
#   3. negative test: inject a synthetic regression into a scratch copy
#      and require the sentinel to go red naming the degraded series —
#      a gate that cannot fail is not a gate;
#   4. vacuity test: a 2-record scratch ledger must exit 4, not pass.
step_ledger_sentinel() {
  cargo build -q --release --offline -p levioso-bench
  local ledger=results/ledger.jsonl
  # The measured run: cheapest fig binary, cache off so every cell is a
  # genuine recompute and the record carries a real throughput sample.
  # Threads pinned so the series key is stable across hosts.
  target/release/fig1_motivation --smoke --no-cache --quiet --threads 2 >/dev/null
  local code=0 seeds=0
  while :; do
    code=0
    target/release/levhist --check > target/ci_ledger_check.log 2>&1 || code=$?
    [[ $code -ne 4 ]] && break
    if [[ $seeds -ge 2 ]]; then
      cat target/ci_ledger_check.log >&2
      echo "ERROR: ledger sentinel still vacuous after seeding runs" >&2
      exit 1
    fi
    seeds=$((seeds + 1))
    echo "    fresh ledger — seeding measured run $((seeds + 1))"
    target/release/fig1_motivation --smoke --no-cache --quiet --threads 2 >/dev/null
  done
  if [[ $code -ne 0 ]]; then
    cat target/ci_ledger_check.log >&2
    echo "ERROR: levhist --check flagged a perf regression (exit $code)" >&2
    exit 1
  fi
  grep -E '^LEDGER (check|PASS)' target/ci_ledger_check.log | sed 's/^/    /'
  # Negative test on a scratch copy: the injected regression (throughput
  # quartered, latencies 8x) must turn the sentinel red.
  cp "$ledger" target/ci_ledger_regressed.jsonl
  target/release/levhist --ledger target/ci_ledger_regressed.jsonl --inject-regression >/dev/null
  code=0
  target/release/levhist --ledger target/ci_ledger_regressed.jsonl --check \
    > target/ci_ledger_negative.log 2>&1 || code=$?
  if [[ $code -ne 1 ]] || ! grep -q '^LEDGER REGRESSION' target/ci_ledger_negative.log; then
    cat target/ci_ledger_negative.log >&2
    echo "ERROR: sentinel did not flag the injected synthetic regression (exit $code)" >&2
    exit 1
  fi
  echo "    negative test: injected regression flagged ($(grep -c '^LEDGER REGRESSION' \
    target/ci_ledger_negative.log) series, exit 1)"
  # Vacuity test: two records are below the minimum comparable history
  # for every series, and that must read as exit 4, never as a pass.
  head -n 2 "$ledger" > target/ci_ledger_thin.jsonl
  code=0
  target/release/levhist --ledger target/ci_ledger_thin.jsonl --check >/dev/null 2>&1 || code=$?
  if [[ $code -ne 4 ]]; then
    echo "ERROR: a 2-record ledger must be vacuous (exit 4), got exit $code" >&2
    exit 1
  fi
  echo "    vacuity test: 2-record ledger refused with exit 4"
  # The trend table, for the log and the CI step summary.
  target/release/levhist | sed 's/^/    /'
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
  run_step "doc tests" step_doc_tests
  run_step "benchmark self-tests: perfbench at reduced sizes" step_perfbench
  run_step "golden gate: paper- and smoke-tier sweeps vs results/golden/" step_golden_gate
  run_step "simulator throughput snapshot" step_perfcheck
  run_step "trace smoke: levitrace conservation + round-trip on one cell" step_trace_smoke
  run_step "noninterference gate: two-run fuzz of every scheme, smoke tier" step_noninterference
  run_step "golden gate reported its cache hit/miss split" step_cache_split
  run_step "serve smoke: warm server answers the second check from memory" step_serve_smoke
  run_step "run ledger: levhist sentinel + injected-regression negative test" step_ledger_sentinel
fi

echo "==> OK: ci.sh $mode green in $((SECONDS - start))s (per-step timing in target/ci_timing.json)"
