#!/usr/bin/env bash
# Smoke of modis_cli's local mode (no --connect): with no --dir it writes
# its demo lake, outer-joins the tables on their key, runs BiMODis and
# writes the skyline as skyline_*.csv. Two runs share one record cache:
#
#   1. cold: at least one skyline_*.csv is written and all 30 states of
#      the budget are trained fresh
#   2. warm: the same command trains nothing and replays every valuation
#      (hit rate 100.0%)
#
# The two skylines are not compared: the local task's measures include
# the wall-clock train_time.
#
# Usage: cli_local_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD=${1:-build}
CLI="$BUILD/examples/modis_cli"
if [ ! -x "$CLI" ]; then
  echo "cli_local_smoke: missing binary $CLI" >&2
  exit 1
fi

OUT="$BUILD/cli_local_smoke"
rm -rf "$OUT"
mkdir -p "$OUT"

fail() {
  echo "cli_local_smoke: $1" >&2
  exit 1
}

run() {
  "$CLI" --budget 30 --out "$OUT" --record-cache "$OUT/cache.rlog"
}

cold=$(run)
echo "$cold"
compgen -G "$OUT/skyline_*.csv" > /dev/null || fail "cold run wrote no skyline_*.csv"
grep -q ", 30 trained fresh," <<< "$cold" || fail "cold run did not train 30 states"

warm=$(run)
echo "$warm"
grep -q ", 0 trained fresh," <<< "$warm" || fail "warm run trained"
grep -q "warm-start hit rate: 100.0%" <<< "$warm" || fail "warm run missed the cache"

echo "cli local smoke OK: warm run trained nothing"
