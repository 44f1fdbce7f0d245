#!/usr/bin/env bash
# Scale campaign driver (EXPERIMENTS.md "Scale campaign"): bench_scale
# sweeps over {10k, 30k, 100k} jobs x {60, 128, 256} racks, RunReports
# written to results/. Serial on purpose — one run at a time so wall/RSS
# numbers are not contended.
#
#   tools/run_scale_campaign.sh [BUILD_DIR] [OUT_DIR]
#
# The 100k x 256 point runs first: it is the scale acceptance gate
# (< 15 min wall) and fails fast if the build regressed.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/scale_campaign}"
mkdir -p "$OUT_DIR"

run() {
  # Wall clock and peak RSS land in the RunReport itself
  # (wall_clock_sec / rss_high_water_bytes); no external timer needed.
  # Completed points are skipped, so a rerun resumes where it stopped.
  local bin="$1" jobs="$2" racks="$3" tag="$4"
  if [ -s "$OUT_DIR/run_${tag}.json" ]; then
    echo "=== $tag (already done) ==="
    return
  fi
  echo "=== $tag ==="
  "$bin" --jobs="$jobs" --racks="$racks" --heartbeat=60 \
    --report-out="$OUT_DIR/run_${tag}.json" \
    > "$OUT_DIR/run_${tag}.log" 2>&1
  python3 tools/run_report.py show "$OUT_DIR/run_${tag}.json"
}

BENCH="$BUILD_DIR/bench/bench_scale"
ORACLE="$BUILD_DIR/tests/oracle_scale"

# Acceptance gate first.
run "$BENCH" 100000 256 j100000_r256

for jobs in 10000 30000 100000; do
  for racks in 60 128 256; do
    [ "$jobs" = 100000 ] && [ "$racks" = 256 ] && continue
    run "$BENCH" "$jobs" "$racks" "j${jobs}_r${racks}"
  done
done

# Fast-vs-oracle cross-check at the 10k point: the production scheduler
# and dispatch must be bit-identical to the test-side references
# (tests/oracles.h), which cost O(active jobs) per offer — too slow for
# the larger points.
run "$ORACLE" 10000 60 j10000_r60_oracle

echo "=== diff ==="
python3 tools/run_report.py diff \
  "$OUT_DIR/run_j10000_r60.json" "$OUT_DIR/run_j10000_r60_oracle.json"
echo "campaign complete"
