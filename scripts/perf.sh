#!/usr/bin/env bash
# Simulator throughput measurement: runs the paper-tier sweep twice and
# reports the cells-per-busy-second delta between the runs — a quick
# stability probe (a large delta means the host is too noisy for the
# numbers to be trusted) plus the comparison against the recorded
# baseline in results/BENCH_sim_throughput.json.
#
# The second run's snapshot is the one left on disk; the recorded
# `baseline` object is preserved across runs (see the `all` driver).
# Every measured run here also appends a levioso-ledger/1 record to
# results/ledger.jsonl (the driver does this on every run), so repeated
# perf.sh sessions build the longitudinal history `levhist` renders and
# `levhist --check` gates on.
#
# Both runs force --no-cache: a throughput measurement must simulate
# every cell, never replay one from target/sweep-cache/ — a cache hit
# contributes no busy time, so letting hits through would inflate the
# cells-per-busy-second rate with free cells (perfcheck independently
# rejects snapshots whose samples mix in cached cells).
#
# With --ab the runs become an observability overhead measurement along
# one of two independent axes:
#
#   --ab        the metrics registry. Run A disables the registry's gated
#               call sites (LEVIOSO_METRICS=off), run B keeps the default
#               (enabled). Neither run attaches a trace sink. The delta is
#               the *enabled-but-idle registry* cost — per-job clock reads
#               and per-cell counter updates — bounded at 1% (DESIGN.md
#               §12).
#   --ab-trace  the trace hooks. Run A is bare, run B attaches the no-op
#               sink to every cell (LEVIOSO_TRACE=null); metrics stay at
#               their default in both. The delta is the *hooked-but-idle*
#               trace cost — nine virtual calls per event plus per-cycle
#               blame construction — bounded at 1% (DESIGN.md §9).
#
# The axes are measured separately on purpose: bundling them into one B
# run would attribute the (per-cycle) trace-hook cost to the (per-cell)
# registry, and vice versa. Because host noise only ever *slows* a run
# down, both modes interleave A/B pairs (A,B,A,B,...) and compare the
# best rate each side achieved: a sequential single pair would attribute
# whatever the host was doing during one of the runs to the treatment.
#
# Usage: scripts/perf.sh [--threads N] [--ab | --ab-trace] [--pairs N]
#        (default threads: 1 — single-threaded numbers are the comparable
#        ones; see DESIGN.md "Hot path & performance model". --pairs sets
#        the number of interleaved A/B pairs in the --ab modes; default 2)

set -euo pipefail
cd "$(dirname "$0")/.."

threads=1
ab=""
pairs=2
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threads)
      threads=${2:?--threads needs a value}
      shift 2
      ;;
    --ab)
      ab=metrics
      shift
      ;;
    --ab-trace)
      ab=trace
      shift
      ;;
    --pairs)
      pairs=${2:?--pairs needs a value}
      shift 2
      ;;
    *)
      echo "unknown argument: $1" >&2
      echo "usage: scripts/perf.sh [--threads N] [--ab | --ab-trace] [--pairs N]" >&2
      exit 2
      ;;
  esac
done

echo "==> building release binaries"
cargo build -q --release --offline -p levioso-bench

extract() {
  cargo run -q --release --offline -p levioso-bench --bin perfcheck \
    | sed -n 's/^PERF .*cells_per_busy_sec=\([0-9.]*\).*$/\1/p' | head -1
}

run_a_label="run 1 of 2"
run_b_label="run 2 of 2"
run_a_env=(env)
run_b_env=(env)
case "$ab" in
  metrics)
    run_a_label="A (metrics off)"
    run_b_label="B (metrics on)"
    run_a_env=(env LEVIOSO_METRICS=off)
    budget_label="enabled-but-idle registry"
    breach_label="metrics-on run >1% slower than the metrics-off run — the registry is not zero-cost-when-idle"
    ;;
  trace)
    run_a_label="A (no sink)"
    run_b_label="B (NullSink attached)"
    run_b_env=(env LEVIOSO_TRACE=null)
    budget_label="hooked-but-idle trace"
    breach_label="NullSink run >1% slower than the bare run — the trace hooks are not zero-cost-when-idle"
    ;;
esac

sweep() { # sweep <env...> — one measured paper-tier run, prints its rate
  "$@" cargo run -q --release --offline -p levioso-bench --bin all -- --paper --check --no-cache --threads "$threads" >/dev/null
  extract
}

# Integer thousandths, in pure shell arithmetic (no bc on the CI image).
# The --ab verdict uses per-mille resolution, since its threshold is 1%.
to_milli() { awk -v v="$1" 'BEGIN { printf "%d", v * 1000 }'; }

if [[ -n "$ab" ]]; then
  # Interleaved pairs, best-of each side: contention can only lower a
  # run's rate, so max-over-pairs converges on each configuration's
  # true throughput while a lone sequential pair measures the host's
  # mood as much as the code.
  best_a=0
  best_b=0
  for (( p = 1; p <= pairs; p++ )); do
    echo "==> paper-tier sweep, $run_a_label, pair $p/$pairs (--threads $threads, --no-cache)"
    ra=$(sweep "${run_a_env[@]}")
    ma=$(to_milli "$ra")
    (( ma > best_a )) && best_a=$ma
    echo "    A rate: $ra cells/busy-sec"
    echo "==> paper-tier sweep, $run_b_label, pair $p/$pairs (--threads $threads, --no-cache)"
    rb=$(sweep "${run_b_env[@]}")
    mb=$(to_milli "$rb")
    (( mb > best_b )) && best_b=$mb
    echo "    B rate: $rb cells/busy-sec"
  done
  cargo run -q --release --offline -p levioso-bench --bin perfcheck
  if [[ "$best_a" -gt 0 ]]; then
    permille=$(( (best_a - best_b) * 1000 / best_a ))
    echo "==> best cells/busy-sec over $pairs pair(s): A=$((best_a / 1000)).$(printf '%03d' $((best_a % 1000))) B=$((best_b / 1000)).$(printf '%03d' $((best_b % 1000))) (${budget_label} slowdown ${permille} per mille)"
    if (( permille > 10 )); then
      echo "==> WARNING: $breach_label"
      exit 1
    fi
    echo "==> OK: $budget_label overhead within the 1% budget"
  else
    echo "==> best rates: A=0 (too fast to resolve; no verdict)"
  fi
  exit 0
fi

echo "==> paper-tier sweep, $run_a_label (--threads $threads, --no-cache)"
"${run_a_env[@]}" cargo run -q --release --offline -p levioso-bench --bin all -- --paper --check --no-cache --threads "$threads" >/dev/null
cargo run -q --release --offline -p levioso-bench --bin perfcheck
r1=$(extract)

echo "==> paper-tier sweep, $run_b_label (--threads $threads, --no-cache)"
"${run_b_env[@]}" cargo run -q --release --offline -p levioso-bench --bin all -- --paper --check --no-cache --threads "$threads" >/dev/null
cargo run -q --release --offline -p levioso-bench --bin perfcheck
r2=$(extract)

m1=$(to_milli "$r1")
m2=$(to_milli "$r2")
if [[ "$m1" -gt 0 ]]; then
  delta=$(( (m2 - m1) * 100 / m1 ))
  echo "==> cells/busy-sec: run1=$r1 run2=$r2 (run-to-run delta ${delta}%)"
  if (( delta > 10 || delta < -10 )); then
    echo "==> WARNING: >10% run-to-run drift — host too noisy, rerun on a quiet machine"
  fi
else
  echo "==> cells/busy-sec: run1=$r1 run2=$r2"
fi
