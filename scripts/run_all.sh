#!/usr/bin/env bash
# One-shot reproduction: configure, build, run the full test suite, and
# regenerate every table/figure of the paper into bench_output.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
# Warning gate: the tier-1 build (-Wall -Wextra) is warning-free, and
# any new warning fails the job.
cmake --build build 2>&1 | tee build_output.txt
if grep -q 'warning:' build_output.txt; then
  echo "build emitted compiler warnings (see build_output.txt)"
  exit 1
fi

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

# Traced smoke job: exercise the observability layer end to end — one
# deterministic and one randomized algorithm with the phase table plus
# both JSON emitters — and check the emitted files actually parse.
# (tests/test_trace.cpp checks the same syntax in-process; this guards
# the CLI wiring.)
mkdir -p trace_output
build/tools/valocal_cli --gen adversarial --n 65536 --algo a2logn \
  --threads 4 --phase-table \
  --run-json trace_output/a2logn.json \
  --trace-json trace_output/a2logn.trace.json \
  2>&1 | tee trace_output/a2logn.txt
build/tools/valocal_cli --gen er --n 20000 --avg-deg 6 --a 6 \
  --algo rand_delta_plus1 --phase-table \
  --run-json trace_output/rand.json \
  --trace-json trace_output/rand.trace.json \
  2>&1 | tee trace_output/rand.txt
# Wake-scheduling smoke: wake scheduling is always on, so a hinted
# deterministic workload under default CLI settings must actually skip
# steps (recorded in the run record) while test_wake_engine separately
# proves the results stay byte-identical to the no-calendar engine.
# oa and mis park H-set members through the (Delta+1)-plan's no-op
# rounds; each of their run records must show skipped steps too.
build/tools/valocal_cli --gen adversarial --n 65536 --algo ka2 \
  --threads 4 --phase-table \
  --run-json trace_output/ka2_hinted.json \
  2>&1 | tee trace_output/ka2_hinted.txt
for algo in oa mis; do
  build/tools/valocal_cli --gen forest --n 65536 --a 3 --algo "$algo" \
    --threads 4 --phase-table \
    --run-json "trace_output/${algo}_hinted.json" \
    2>&1 | tee "trace_output/${algo}_hinted.txt"
done
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
for path in ("trace_output/a2logn.trace.json",
             "trace_output/rand.trace.json"):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert events, f"{path}: no trace events"
for path in ("trace_output/a2logn.json", "trace_output/rand.json"):
    with open(path) as f:
        runs = [json.loads(line) for line in f]
    assert runs, f"{path}: no run records"
    for run in runs:
        totals = run["totals"]
        assert sum(p["round_sum"] for p in run["phases"]) == \
            totals["round_sum"], f"{path}: phase sums != round_sum"
        assert any(r["volume_bytes"] > 0 for r in run["rounds"]), \
            f"{path}: no communication volume recorded"
with open("trace_output/ka2_hinted.json") as f:
    runs = [json.loads(line) for line in f]
assert any(run["totals"].get("skipped_steps", 0) > 0 for run in runs), \
    "ka2_hinted.json: wake scheduling skipped no steps"
for algo in ("oa", "mis"):
    with open(f"trace_output/{algo}_hinted.json") as f:
        runs = [json.loads(line) for line in f]
    assert runs, f"{algo}_hinted.json: no run records"
    for run in runs:
        assert run["totals"].get("skipped_steps", 0) > 0, \
            f"{algo}_hinted.json: a run skipped no steps"
print("trace smoke: all emitted JSON parses and decomposes exactly")
EOF
else
  echo "python3 unavailable; skipping trace JSON validation"
fi

# Registry smoke: --list-algos must enumerate the catalog, and every
# registered algorithm must run and VALIDATE on a tiny graph through
# the exact CLI path users take. ring(64) with a=2 satisfies every
# spec's graph-family constraint (ring arboricity is 2 by the paper's
# convention), so one loop covers the whole catalog; a non-zero exit
# from any run (validation failure included) aborts the script.
build/tools/valocal_cli --list-algos | tee registry_catalog.txt
n_algos=$(build/tools/valocal_cli --list-algos names | wc -l)
[ "$n_algos" -ge 20 ] || { echo "registry smoke: only $n_algos algorithms listed"; exit 1; }
for algo in $(build/tools/valocal_cli --list-algos names); do
  echo "--- registry smoke: $algo ---"
  build/tools/valocal_cli --gen ring --n 64 --a 2 --algo "$algo" --validate
done

# Large-graph smoke: an RMAT scale-20 instance through the whole
# binary-edge-list path — generate + streaming CSR build + one
# registry solve, save as a binary edge list, re-ingest it via mmap,
# and check the round-trip is byte-identical (both builds produce
# canonical edge ids, so a second save must reproduce the file
# exactly). Also exercises --stats (the one-pass degree/arboricity
# summary) at scale.
echo "--- large-graph smoke: rmat:20x8 ---"
build/tools/valocal_cli --graph rmat:20x8 --seed 7 --algo luby \
  --validate --stats --save-bin trace_output/rmat20.bin
build/tools/valocal_cli --load-bin trace_output/rmat20.bin --algo luby \
  --validate --save-bin trace_output/rmat20.roundtrip.bin
cmp trace_output/rmat20.bin trace_output/rmat20.roundtrip.bin
echo "large-graph smoke: binary round-trip byte-identical"

# Cross-paper smoke: the two BGKO'22 entries (node/edge-averaged
# catalog rows) must solve and validate on a low-degree RMAT instance
# (scale 14, edge factor 2 keeps the average degree ~4), and the CLI
# metrics line must carry the edge-averaged measure the accounting
# refactor introduced — grep guards the reporting plumbing end to end.
for algo in bgko_mis bgko_matching; do
  echo "--- cross-paper smoke: $algo ---"
  build/tools/valocal_cli --graph rmat:14x2 --seed 7 --algo "$algo" \
    --validate | tee "trace_output/crosspaper_$algo.txt"
  grep -q 'edge-averaged=' "trace_output/crosspaper_$algo.txt" || {
    echo "cross-paper smoke: $algo metrics line lacks edge-averaged"
    exit 1
  }
done
echo "cross-paper smoke: BGKO'22 entries validate with EA reported"

# ThreadSanitizer job: rebuild the round engine's suites with
# -DVALOCAL_SANITIZE=thread and run them (the parallel-engine tests use
# num_threads up to 8 internally), racing-checking the engine before
# the benches rely on it. test_graph runs the streaming CSR build at 4
# threads. Skipped gracefully where libtsan is absent.
if echo 'int main(){}' | c++ -fsanitize=thread -x c++ - -o /tmp/valocal_tsan_probe 2>/dev/null; then
  rm -f /tmp/valocal_tsan_probe
  cmake -B build-tsan -G Ninja -DVALOCAL_SANITIZE=thread
  cmake --build build-tsan --target test_parallel_engine test_engine test_engine_contracts test_mailbox test_wake_engine test_frontier_engine test_registry test_graph test_rmat test_edgelist_bin
  ctest --test-dir build-tsan --output-on-failure \
    -R 'test_parallel_engine|test_engine$|test_engine_contracts|test_mailbox|test_wake_engine|test_frontier_engine|test_registry|test_graph|test_rmat|test_edgelist_bin' \
    2>&1 | tee tsan_output.txt
else
  echo "ThreadSanitizer unavailable; skipping TSan job" | tee tsan_output.txt
fi

# AddressSanitizer + UndefinedBehaviorSanitizer job over the graph
# ingestion suites (the streaming CSR build's scatter, radix sort and
# cursor sweep index raw arrays, and the binary loader reads an mmap),
# the color-reduction kernel's users (pick_escaping walks per-thread
# digit buffers; the Kuhn-Wattenhofer and list-color sweeps index
# reused `taken` arrays) and the round engine's suites (the per-thread
# workspace is shared by every State type and reused across runs; the
# bitset walk, calendar and dormancy barrier index it raw). UBSan
# findings abort the test instead of scrolling by. Skipped gracefully
# where libasan or libubsan is absent.
if echo 'int main(){}' | c++ -fsanitize=address,undefined -x c++ - -o /tmp/valocal_asan_probe 2>/dev/null; then
  rm -f /tmp/valocal_asan_probe
  cmake -B build-asan -G Ninja -DVALOCAL_SANITIZE=address,undefined
  cmake --build build-asan --target test_graph test_rmat test_edgelist_bin \
    test_coverfree test_kw_reduce test_coloring_a2 test_coloring_a2logn \
    test_coloring_oa test_determinism test_engine test_engine_contracts \
    test_wake_engine test_frontier_engine test_parallel_engine \
    test_registry test_step_alloc
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure \
    -R 'test_graph|test_rmat|test_edgelist_bin|test_coverfree|test_kw_reduce|test_coloring_a2$|test_coloring_a2logn|test_coloring_oa|test_determinism|test_engine$|test_engine_contracts|test_wake_engine|test_frontier_engine|test_parallel_engine|test_registry|test_step_alloc' \
    2>&1 | tee asan_output.txt
else
  echo "ASan/UBSan unavailable; skipping ASan+UBSan job" | tee asan_output.txt
fi

# The scaling bench's graph-substrate section generates an RMAT
# instance at VALOCAL_RMAT_SCALE (default 24, ~268M directed pairs —
# the number BENCH_engine.json records via scripts/bench_baseline.sh).
# Keep the everything-in-one-pass script fast with scale 20 here.
export VALOCAL_RMAT_SCALE="${VALOCAL_RMAT_SCALE:-20}"

{
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "===== $(basename "$b") ====="
    if [ "$(basename "$b")" = bench_micro ]; then
      "$b" --benchmark_min_time=0.05
    else
      "$b"
    fi
    echo "exit=$?"
  done
} 2>&1 | tee bench_output.txt

# perf-smoke job: rebuild the engine micro fixtures under the "release"
# preset (-O3 -DNDEBUG — the configuration BENCH_engine.json records)
# and compare round-throughput against the latest committed snapshot.
# A >30% drop on any BM_Engine* fixture or the BM_PickEscaping
# color-reduction kernel fails the script loudly; an
# intended regression requires refreshing the baseline via
# scripts/bench_baseline.sh and committing BENCH_engine.json.
if [ -f BENCH_engine.json ] && command -v python3 >/dev/null 2>&1; then
  cmake --preset release
  cmake --build --preset release --target bench_micro
  build-release/bench/bench_micro \
    --benchmark_filter='BM_Engine|BM_PickEscaping' \
    --benchmark_min_time=0.2 \
    --benchmark_out=perf_smoke_micro.json --benchmark_out_format=json \
    2>&1 | tee perf_smoke_output.txt
  python3 scripts/perf_snapshot.py check perf_smoke_micro.json 0.7 \
    2>&1 | tee -a perf_smoke_output.txt
else
  echo "perf-smoke skipped (no BENCH_engine.json or python3)" \
    | tee perf_smoke_output.txt
fi

echo "Done: test_output.txt, bench_output.txt, perf_smoke_output.txt"
