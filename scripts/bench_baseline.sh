#!/usr/bin/env bash
# Snapshot the engine's round-throughput into BENCH_engine.json.
#
# Builds the "release" CMake preset (-O3 -DNDEBUG), runs the engine
# micro fixtures (bench_micro, google-benchmark JSON) and the scaling /
# trial-batch sweep (bench_engine_scaling with VALOCAL_BENCH_JSON set),
# and appends one labelled snapshot to BENCH_engine.json at the repo
# root. Snapshots are append-only: re-run after any engine-affecting
# change and commit the refreshed file alongside it. The perf-smoke job
# in scripts/run_all.sh compares against the LATEST snapshot.
#
# Usage: scripts/bench_baseline.sh [label] [preset]
#   label   snapshot label recorded in BENCH_engine.json (default:
#           "snapshot")
#   preset  CMake preset to build and measure (default: "release";
#           "release-native" adds -march=native — note snapshots from
#           different presets are not comparable, the compiler block in
#           the host record says which one was used)
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-snapshot}"
PRESET="${2:-release}"
BUILD_DIR="build-${PRESET}"
MICRO_JSON="$(mktemp /tmp/valocal_bench_micro.XXXXXX.json)"
SCALING_JSON="$(mktemp /tmp/valocal_bench_scaling.XXXXXX.json)"
CROSSPAPER_JSON="$(mktemp /tmp/valocal_bench_crosspaper.XXXXXX.json)"
trap 'rm -f "$MICRO_JSON" "$SCALING_JSON" "$CROSSPAPER_JSON"' EXIT

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" \
  --target bench_micro bench_engine_scaling bench_crosspaper

"$BUILD_DIR"/bench/bench_micro \
  --benchmark_filter='BM_Engine|BM_PickEscaping|BM_Graph' \
  --benchmark_min_time=0.2 \
  --benchmark_out="$MICRO_JSON" --benchmark_out_format=json

VALOCAL_BENCH_JSON="$SCALING_JSON" "$BUILD_DIR"/bench/bench_engine_scaling

# The cross-paper measure lab (2018 vs 2022 vs worst-case baselines):
# its VA/EA/WC cells ride along in the snapshot's "crosspaper" section.
VALOCAL_BENCH_JSON="$CROSSPAPER_JSON" "$BUILD_DIR"/bench/bench_crosspaper

python3 scripts/perf_snapshot.py append "$LABEL" \
  "$MICRO_JSON" "$SCALING_JSON" "$CROSSPAPER_JSON"
