// Trial-level scheduler: runs independent trials (seed sweeps, table
// repetitions) across the engine's ThreadPool.
//
// The round engine parallelizes WITHIN a round, which only pays off
// when the active set is large; a seed sweep over many medium graphs is
// embarrassingly parallel at the TRIAL level with zero coordination per
// round. run_batch picks between the two regimes:
//
//   - per-trial (the default when there are at least as many trials as
//     threads, or the graphs are small): trials are sharded across the
//     pool via dynamic chunk claiming with grain 1 — a natural
//     work-stealing schedule, since a worker that finishes a cheap
//     trial immediately claims the next unclaimed one. Each trial runs
//     its rounds serially (a thread-local override pins any nested
//     run_local to one thread, so the pool is never oversubscribed),
//     and results land in result slot trial_index — the output vector
//     is identical to the serial loop's regardless of schedule.
//
//   - intra-trial (few huge trials): trials run one after another on
//     the caller, each with the engine's intra-round parallelism
//     enabled at the batch's thread count.
//
// Determinism. run_trial(i) must derive everything (graph, seed) from
// the trial index; under that contract the result vector is
// byte-identical to `for (i...) results[i] = run_trial(i)` for every
// thread count and regime, because trials share no mutable state and the
// engine itself is deterministic. Tracing: the caller's sink (a
// thread-local slot) is bridged to per-trial RecordingSink tapes that
// are replayed in trial order after the batch — the observed stream is
// exactly the serial loop's (minus wall-clock fields, which are never
// semantic).
//
// run_trial must be safe to invoke concurrently from different threads
// for different indices. Closures must not write shared state (e.g.
// bench ValidationTracker); validate results serially after the batch.
//
// Most callers don't use run_batch directly for seed sweeps any more:
// registry::run_trials (src/registry/) wraps it with the standard
// trial-i-runs-seed+i convention for any registered algorithm, which is
// what the CLI's --batch-trials and bench_randomized_tails go through.
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
  /// Total concurrency. 0 = inherit the engine default
  /// (set_engine_threads / thread-local override), like run_local.
  std::size_t num_threads = 0;
  /// Approximate vertices per trial; informs the regime choice
  /// (0 = unknown, then trials always shard per-trial).
  std::size_t trial_vertices = 0;
};

namespace detail_batch {

inline std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t override_threads = detail_engine_thread_override();
  return override_threads != 0 ? override_threads : engine_threads();
}

inline bool use_per_trial(std::size_t num_trials, std::size_t threads,
                          const BatchOptions& opt) {
  if (threads <= 1) return true;  // serial either way; skip the pool
  // Per-trial sharding wins unless trials cannot fill the pool AND
  // each trial is big enough for intra-round parallelism to bite.
  return num_trials >= threads || opt.trial_vertices < (1u << 16);
}

}  // namespace detail_batch

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

  const std::size_t threads =
      detail_batch::resolve_threads(opt.num_threads);

  if (!detail_batch::use_per_trial(num_trials, threads, opt)) {
    // Few huge trials: serial trial loop, parallel rounds inside.
    ScopedEngineThreadOverride scoped(threads);
    for (std::size_t i = 0; i < num_trials; ++i)
      results[i] = run_trial(i);
    return results;
  }

  if (threads <= 1) {
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
  {
    ThreadPool pool(threads);
    pool.parallel_for_chunks(
        num_trials, 1,
        [&](std::size_t /*chunk*/, std::size_t begin,
            std::size_t /*end*/) {
          // One trial per chunk. Nested engine runs stay serial, and
          // the trial's events go to its own tape (or nowhere).
          ScopedEngineThreadOverride serial(1);
          trace::ScopedSink scoped(
              caller_sink != nullptr ? &tapes[begin] : nullptr);
          results[begin] = run_trial(begin);
        });
  }
  for (const trace::RecordingSink& tape : tapes)
    tape.replay(*caller_sink);
  return results;
}

}  // namespace valocal
