#!/usr/bin/env bash
# Bench ratchet: the advisor exhibits' optimizer-call counts must never
# regress, and wall-clock must stay within a noise tolerance of baseline.
#
# Re-runs the quick-scale advisor exhibits (par plus the scale10k
# compression pair) in a scratch directory (so the committed
# BENCH_advisor.json is never clobbered), extracts per-exhibit
# optimizer_calls / optimizer_calls_raw / enumerate_calls / wall_seconds
# from the fresh JSON, and compares against the committed bench.baseline (one
# "exhibit metric value" triple per line, '#' comments allowed).
#
# The scale10k/scale10k-raw pair is the workload-compression acceptance
# exhibit: the compressed run's raw-equivalent calls must stay >= 10x below
# the uncompressed run's — checked explicitly below, on top of the
# per-exhibit ratchets.  Its enumerate_calls count locks in that
# compression runs Enumerate Indexes once per distinct statement, not once
# per statement.
#
# Call counts are deterministic — any increase fails hard.  Wall-clock is
# noisy, so it only fails above WALL_TOL x baseline (default 3.0; override
# via the environment for stricter CI hosts).
#
# The baseline may also carry absolute micro-benchmark ceilings:
#   micro <test> budget_ns <ceiling>
# checked against the committed BENCH_micro.json's ns_per_run for that
# test (no re-run — the committed exhibit must stay within budget when it
# is regenerated).  Budgets are hand-set, so --write-baseline preserves
# them verbatim.
#
#   dune build @bench-ratchet       via the build (sandboxed source copy)
#   ./tools/bench_ratchet.sh        standalone from a checkout
#
# Re-baseline — after a deliberate cost-model change, or to lock in a new
# batching win (run standalone, not through dune, so the file lands in the
# checkout):
#   ./tools/bench_ratchet.sh --write-baseline
#
# The baseline must agree with the committed BENCH_advisor.json: regenerate
# both together (`dune exec bench/main.exe -- quick par scale10k scale10k-raw`,
# then `./tools/bench_ratchet.sh --write-baseline`).

set -euo pipefail
cd "$(dirname "$0")/.."

WALL_TOL="${WALL_TOL:-3.0}"
EXHIBITS="par scale10k scale10k-raw"
COMPRESS_MIN_RATIO=10

mode=check
exe=""
for arg in "$@"; do
  case "$arg" in
    --write-baseline) mode=write ;;
    *) exe="$arg" ;;
  esac
done

if [ -z "$exe" ]; then
  exe=_build/default/bench/main.exe
  if [ ! -x "$exe" ]; then
    dune build bench/main.exe
  fi
fi
exe=$(realpath "$exe")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && "$exe" quick $EXHIBITS >bench.log 2>&1) || {
  echo "bench-ratchet: bench run failed:" >&2
  cat "$scratch/bench.log" >&2
  exit 2
}
fresh="$scratch/BENCH_advisor.json"
if [ ! -f "$fresh" ]; then
  echo "bench-ratchet: bench run produced no BENCH_advisor.json" >&2
  exit 2
fi

# One exhibit object per line; pull "<name> <metric> <value>" triples out of
# the compact JSON with awk (no jq in the toolchain image).
metrics_of() {
  awk '
    match($0, /"name": "[^"]*"/) {
      name = substr($0, RSTART + 9, RLENGTH - 10)
      for (m = 1; m <= 4; m++) {
        metric = (m == 1 ? "optimizer_calls" : m == 2 ? "optimizer_calls_raw" : m == 3 ? "enumerate_calls" : "wall_seconds")
        pat = "\"" metric "\": "
        if (index($0, pat) > 0) {
          v = $0; sub(".*" pat, "", v); sub(/[,}].*/, "", v)
          print name, metric, v
        }
      }
    }' "$1"
}

fresh_metrics=$(metrics_of "$fresh")

if [ "$mode" = write ]; then
  budgets=""
  if [ -f bench.baseline ]; then
    budgets=$(grep '^micro ' bench.baseline || true)
  fi
  {
    echo "# Advisor-bench ratchet baseline: per-exhibit optimizer call counts"
    echo "# and wall-clock from the quick-scale run, plus hand-set absolute"
    echo "# micro ceilings (\"micro <test> budget_ns <ceiling>\", checked"
    echo "# against the committed BENCH_micro.json).  Checked by"
    echo "# tools/bench_ratchet.sh; regenerate (together with the committed"
    echo "# BENCH_advisor.json) via ./tools/bench_ratchet.sh --write-baseline"
    printf '%s\n' "$fresh_metrics"
    [ -n "$budgets" ] && printf '%s\n' "$budgets"
  } >bench.baseline
  echo "bench-ratchet: wrote bench.baseline"
  exit 0
fi

if [ ! -f bench.baseline ]; then
  echo "bench-ratchet: bench.baseline missing; create it with ./tools/bench_ratchet.sh --write-baseline" >&2
  exit 2
fi

baseline_of() {
  awk -v ex="$1" -v metric="$2" '$1 == ex && $2 == metric { print $3 }' bench.baseline
}

fail=0
while read -r ex metric value; do
  [ -z "$ex" ] && continue
  base=$(baseline_of "$ex" "$metric")
  if [ -z "$base" ]; then
    echo "bench-ratchet: $ex.$metric not in baseline — re-baseline with ./tools/bench_ratchet.sh --write-baseline" >&2
    fail=1
    continue
  fi
  case "$metric" in
    wall_seconds)
      if awk -v v="$value" -v b="$base" -v tol="$WALL_TOL" 'BEGIN { exit !(v > b * tol) }'; then
        echo "bench-ratchet: $ex wall-clock regressed: ${value}s vs baseline ${base}s (tolerance ${WALL_TOL}x)" >&2
        fail=1
      fi
      ;;
    *)
      if [ "$value" -gt "$base" ]; then
        echo "bench-ratchet: $ex.$metric regressed: $value calls, baseline $base" >&2
        fail=1
      elif [ "$value" -lt "$base" ]; then
        echo "bench-ratchet: $ex.$metric improved: $value calls, baseline $base — tighten with ./tools/bench_ratchet.sh --write-baseline"
      fi
      ;;
  esac
done <<<"$fresh_metrics"

# Compression acceptance: the compressed scale exhibit must need at most
# 1/COMPRESS_MIN_RATIO of the uncompressed path's raw-equivalent calls.
fresh_of() {
  awk -v ex="$1" -v metric="$2" '$1 == ex && $2 == metric { print $3 }' <<<"$fresh_metrics"
}
raw_compressed=$(fresh_of scale10k optimizer_calls_raw)
raw_uncompressed=$(fresh_of scale10k-raw optimizer_calls_raw)
if [ -n "$raw_compressed" ] && [ -n "$raw_uncompressed" ]; then
  if [ $((raw_compressed * COMPRESS_MIN_RATIO)) -gt "$raw_uncompressed" ]; then
    echo "bench-ratchet: compression ratio regressed: scale10k raw-equivalent $raw_compressed vs uncompressed $raw_uncompressed (must be >= ${COMPRESS_MIN_RATIO}x apart)" >&2
    fail=1
  fi
else
  echo "bench-ratchet: scale10k/scale10k-raw missing from fresh metrics" >&2
  fail=1
fi

# Absolute micro ceilings against the committed BENCH_micro.json.
if grep -q '^micro ' bench.baseline 2>/dev/null; then
  if [ ! -f BENCH_micro.json ]; then
    echo "bench-ratchet: bench.baseline has micro budgets but BENCH_micro.json is missing" >&2
    fail=1
  else
    while read -r _ test metric ceiling; do
      [ "$metric" = budget_ns ] || continue
      actual=$(awk -v t="$test" '
        match($0, /"name": "[^"]*"/) {
          name = substr($0, RSTART + 9, RLENGTH - 10)
          if (name == t && match($0, /"ns_per_run": [0-9.]+/)) {
            v = substr($0, RSTART + 14, RLENGTH - 14)
            print v
          }
        }' BENCH_micro.json)
      if [ -z "$actual" ]; then
        echo "bench-ratchet: micro test $test not in BENCH_micro.json — regenerate it (dune exec bench/main.exe -- micro)" >&2
        fail=1
      elif awk -v v="$actual" -v b="$ceiling" 'BEGIN { exit !(v > b) }'; then
        echo "bench-ratchet: micro $test over budget: ${actual} ns/run, ceiling ${ceiling}" >&2
        fail=1
      fi
    done < <(grep '^micro ' bench.baseline)
  fi
fi

if [ "$fail" -ne 0 ]; then
  {
    echo "bench-ratchet: bench metrics above baseline.  Either fix the"
    echo "bench-ratchet: regression, or — if the cost change is deliberate —"
    echo "bench-ratchet: re-baseline and commit:"
    echo "bench-ratchet:   ./tools/bench_ratchet.sh --write-baseline && git add bench.baseline"
  } >&2
  exit 1
fi
echo "bench-ratchet: OK (calls at or below baseline, wall-clock within ${WALL_TOL}x)"
