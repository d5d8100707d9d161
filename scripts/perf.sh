#!/usr/bin/env bash
# Trace-hook overhead A/B: the cost of an attached but idle trace sink.
#
# Run A is bare; run B attaches the no-op sink to every cell
# (LEVIOSO_TRACE=null). Each run is a paper-tier `all --check --no-cache`,
# so every cell is simulated, never replayed from target/sweep-cache/ (a
# cache hit contributes no busy time). The rate compared is the
# cells-per-busy-second figure on the `==> sim throughput:` line `all`
# prints to stderr. The delta is the *hooked-but-idle* trace cost — nine
# virtual calls per event plus per-cycle blame construction — bounded at
# 1% (DESIGN.md §9).
#
# Because host noise only ever *slows* a run down, the runs interleave
# A/B pairs (A,B,A,B,...) and compare the best rate each side achieved: a
# sequential single pair would attribute whatever the host was doing
# during one of the runs to the treatment.
#
# Host-performance claims are made with the benchmark (perfbench/, see
# BENCHMARK.json), not with this script.
#
# Usage: scripts/perf.sh --ab-trace [--threads N] [--pairs N]
#        (default threads: 1 — single-threaded numbers are the comparable
#        ones; default pairs: 2)

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/perf.sh --ab-trace [--threads N] [--pairs N]" >&2
  exit 2
}

threads=1
ab=""
pairs=2
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threads)
      [[ $# -ge 2 ]] || usage
      threads=$2
      shift 2
      ;;
    --ab-trace)
      ab=trace
      shift
      ;;
    --pairs)
      [[ $# -ge 2 ]] || usage
      pairs=$2
      shift 2
      ;;
    *)
      echo "unknown argument: $1" >&2
      usage
      ;;
  esac
done
[[ -n "$ab" ]] || usage

echo "==> building release binaries"
cargo build -q --release --offline -p levioso-bench

sweep() { # sweep <env...> — one measured paper-tier run, prints its rate
  "$@" cargo run -q --release --offline -p levioso-bench --bin all -- \
    --paper --check --no-cache --threads "$threads" 2>&1 >/dev/null \
    | sed -n 's/^==> sim throughput: .*, \([0-9.]*\) cells\/busy-sec)$/\1/p'
}

# Integer thousandths, in pure shell arithmetic (no bc on the CI image).
# The verdict uses per-mille resolution, since its threshold is 1%.
to_milli() { awk -v v="$1" 'BEGIN { printf "%d", v * 1000 }'; }

# Interleaved pairs, best-of each side: contention can only lower a run's
# rate, so max-over-pairs converges on each configuration's true
# throughput while a lone sequential pair measures the host's mood as
# much as the code.
best_a=0
best_b=0
for (( p = 1; p <= pairs; p++ )); do
  echo "==> paper-tier sweep, A (no sink), pair $p/$pairs (--threads $threads, --no-cache)"
  ra=$(sweep env)
  ma=$(to_milli "$ra")
  (( ma > best_a )) && best_a=$ma
  echo "    A rate: $ra cells/busy-sec"
  echo "==> paper-tier sweep, B (NullSink attached), pair $p/$pairs (--threads $threads, --no-cache)"
  rb=$(sweep env LEVIOSO_TRACE=null)
  mb=$(to_milli "$rb")
  (( mb > best_b )) && best_b=$mb
  echo "    B rate: $rb cells/busy-sec"
done
if [[ "$best_a" -gt 0 ]]; then
  permille=$(( (best_a - best_b) * 1000 / best_a ))
  echo "==> best cells/busy-sec over $pairs pair(s): A=$((best_a / 1000)).$(printf '%03d' $((best_a % 1000))) B=$((best_b / 1000)).$(printf '%03d' $((best_b % 1000))) (hooked-but-idle trace slowdown ${permille} per mille)"
  if (( permille > 10 )); then
    echo "==> WARNING: NullSink run >1% slower than the bare run — the trace hooks are not zero-cost-when-idle"
    exit 1
  fi
  echo "==> OK: hooked-but-idle trace overhead within the 1% budget"
else
  echo "==> best rates: A=0 (too fast to resolve; no verdict)"
fi
