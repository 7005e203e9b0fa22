// Trial-level scheduler: runs independent trials (seed sweeps, table
// repetitions) across the engine pool. docs/MODEL.md ("Trial
// batching") has the full story; in short, from the engine's thread
// count (util/thread_pool.hpp) run_batch picks one of two regimes:
//
//   - per-trial (at least as many trials as threads, or small graphs):
//     the batch claims the engine pool and shards trials over it with
//     grain 1, a work-stealing schedule. Each trial's own run_local
//     finds the pool claimed and runs serially, and its result lands in
//     slot trial_index.
//   - intra-trial (few huge trials): a plain loop; each trial's
//     run_local claims the pool.
//
// A per-trial batch that finds the pool claimed (a batch nested in a
// run or another batch) shards over a private ThreadPool(1), serially.
//
// Determinism. If run_trial(i) derives everything (graph, seed) from
// i, the result vector is byte-identical to the serial loop
// `for (i...) results[i] = run_trial(i)` for every thread count and
// regime. The caller's trace sink (a thread-local slot) is bridged to
// per-trial RecordingSink tapes replayed in trial order, so the
// observed stream is the serial loop's (minus wall-clock fields).
// run_trial must be safe to call concurrently for different indices
// and must not write shared state; validate results after the batch.
// registry::run_trials wraps run_batch with the trial-i-runs-seed+i
// convention (the CLI's --batch-trials, bench_randomized_tails).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace valocal {

struct BatchOptions {
  /// Approximate vertices per trial; informs the regime choice
  /// (0 = unknown, then trials always shard per-trial).
  std::size_t trial_vertices = 0;
};

/// Runs `run_trial(i)` for i in [0, num_trials) and returns the results
/// in trial order. See the file comment for the scheduling regimes and
/// the determinism contract.
template <class F>
auto run_batch(std::size_t num_trials, F&& run_trial,
               BatchOptions opt = {})
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  using Result = std::invoke_result_t<F&, std::size_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "run_batch pre-sizes the result vector; the trial "
                "result type must be default-constructible");
  std::vector<Result> results(num_trials);
  if (num_trials == 0) return results;

  // Per-trial sharding wins unless trials cannot fill the pool AND
  // each trial is big enough for intra-round parallelism to bite.
  if (num_trials < engine_threads() && opt.trial_vertices >= (1u << 16)) {
    for (std::size_t i = 0; i < num_trials; ++i)
      results[i] = run_trial(i);
    return results;
  }

  // Per-trial sharding. grain 1 over trial indices gives dynamic
  // work stealing: chunk == trial, claimed by whichever worker is
  // free. The caller's sink (if any) is bridged via per-trial tapes so
  // the traced stream never interleaves across trials.
  trace::TraceSink* const caller_sink = trace::sink();
  std::vector<trace::RecordingSink> tapes(
      caller_sink != nullptr ? num_trials : 0);
  const EnginePoolClaim claim;
  claim.pool().parallel_for_chunks(
      num_trials, 1,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t /*end*/) {
        // One trial per chunk; its events go to its own tape (or
        // nowhere).
        trace::ScopedSink scoped(
            caller_sink != nullptr ? &tapes[begin] : nullptr);
        results[begin] = run_trial(begin);
      });
  for (const trace::RecordingSink& tape : tapes)
    tape.replay(*caller_sink);
  return results;
}

}  // namespace valocal
