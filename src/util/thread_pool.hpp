// Small reusable fork-join thread pool for the round engine.
//
// The pool exists to parallelize one shape of work: a chunked
// parallel-for over an index range, repeated many times (once per
// round) with negligible per-dispatch overhead. Chunks are claimed
// dynamically — any worker may execute any chunk, in any order — but
// every chunk is identified by its index, so a caller that writes
// results into per-chunk slots and merges them in index order obtains
// a result that is independent of the actual schedule. That is the
// determinism contract run_local builds on.
//
// Workers persist across calls (created once, parked on a condition
// variable between jobs); the calling thread participates in every
// job, so ThreadPool(1) spawns no threads at all and degenerates to a
// plain loop. The engine's scheduling lives here too: one process-wide
// EngineConfig and the one persistent engine pool it sizes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace valocal {

/// Ceiling on a pool's total concurrency; a constant, not an option.
inline constexpr std::size_t kMaxPoolThreads = 256;

class ThreadPool {
 public:
  /// Cumulative work executed by one participant thread: chunks claimed
  /// and indices stepped. Slot 0 is the dispatching caller, slots 1..
  /// the pool's workers. Dynamic chunk claiming makes the split
  /// schedule-dependent; the trace layer surfaces it to expose load
  /// imbalance (the totals across slots are deterministic).
  struct WorkerLoad {
    std::uint64_t chunks = 0;
    std::uint64_t indices = 0;
  };

  /// `num_threads` is the total concurrency, caller included: the pool
  /// spawns num_threads - 1 workers (0 and 1 are both "no workers").
  /// Dies above kMaxPoolThreads, before any worker starts.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the participating caller).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Per-thread load counters, valid only while no job is in flight
  /// (each participant publishes its slot before signalling completion).
  const std::vector<WorkerLoad>& worker_load() const { return load_; }
  void reset_load() { load_.assign(load_.size(), WorkerLoad{}); }

  /// Splits [0, total) into consecutive chunks of `grain` indices and
  /// invokes fn(chunk_index, begin, end) exactly once per chunk
  /// (chunk_index = begin / grain). Blocks until every chunk has run;
  /// the calling thread participates. Not reentrant and not
  /// thread-safe: one job at a time, dispatched from one thread.
  ///
  /// Guaranteed-serial fast path: with no workers (ThreadPool(1)) or a
  /// single chunk, the loop below runs inline — no std::function is
  /// materialized, no mutex, condition variable, or atomic is touched.
  /// run_local leans on this: a serial run pays only the plain loop.
  template <class Fn>
  void parallel_for_chunks(std::size_t total, std::size_t grain,
                           Fn&& fn) {
    if (total == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t num_chunks = (total + grain - 1) / grain;
    if (workers_.empty() || num_chunks == 1) {
      for (std::size_t c = 0, begin = 0; c < num_chunks; ++c, begin += grain)
        fn(c, begin, total - begin < grain ? total : begin + grain);
      load_[0].chunks += num_chunks;
      load_[0].indices += total;
      return;
    }
    // Parallel path: box the callable BY REFERENCE (one captured
    // pointer, within std::function's small-buffer optimization — no
    // heap allocation per dispatch) and hand off to the out-of-line
    // fork-join machinery.
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        boxed = [&fn](std::size_t c, std::size_t b, std::size_t e) {
          fn(c, b, e);
        };
    dispatch(total, grain, num_chunks, boxed);
  }

 private:
  // One fork-join dispatch. Workers copy the shared_ptr under the pool
  // mutex, then claim chunks lock-free; a worker that wakes late simply
  // finds `next` exhausted. Each Job owns its counters, so a straggler
  // from generation g can never consume indices of generation g+1.
  struct Job {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn;
    std::size_t total = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> chunks_done{0};
  };

  void worker_loop(std::size_t slot);
  /// Claims and runs chunks of `job`, accumulating into load slot
  /// `slot`; returns true if this call completed the job (ran its
  /// final outstanding chunk).
  bool run_chunks(Job& job, std::size_t slot);
  /// Fork-join dispatch of an already-chunked job to the workers.
  void dispatch(
      std::size_t total, std::size_t grain, std::size_t num_chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>&
          fn);

  std::vector<std::thread> workers_;
  std::vector<WorkerLoad> load_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // dispatcher waits for completion
  std::shared_ptr<Job> job_;         // guarded by mutex_
  std::uint64_t generation_ = 0;     // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_
};

/// The engine's scheduling, one per process. Pure scheduling: results
/// are byte-identical for every value (sim/network.hpp).
struct EngineConfig {
  std::size_t threads = 1;  // total concurrency, caller included
  std::size_t grain = 0;    // vertices per work chunk; 0 = automatic
};

EngineConfig engine_config();
/// Rebuilds the engine pool only when the thread count changes, joining
/// the old workers first: set_engine_threads(1) leaves none alive for a
/// forked death-test child. Threads 0 reads as 1. Dies while a run
/// holds the pool.
void set_engine_config(EngineConfig config);
inline void set_engine_threads(std::size_t threads) {  // keeps the grain
  set_engine_config({threads, engine_config().grain});
}
inline std::size_t engine_threads() { return engine_config().threads; }

/// Installs a config for its scope and restores the previous one.
class ScopedEngineConfig {
 public:
  explicit ScopedEngineConfig(EngineConfig config)
      : previous_(engine_config()) {
    set_engine_config(config);
  }
  ~ScopedEngineConfig() { set_engine_config(previous_); }
  ScopedEngineConfig(const ScopedEngineConfig&) = delete;
  ScopedEngineConfig& operator=(const ScopedEngineConfig&) = delete;

 private:
  EngineConfig previous_;
};

/// A run's claim on the engine pool: one atomic compare-exchange, held
/// to scope exit. Not a mutex, since the claiming thread runs chunk 0
/// and a run nested in its step would re-lock it. A claim that finds
/// the pool taken (a batch trial, a nested run, another user thread)
/// gets a private ThreadPool(1), a plain loop. Either pool's load
/// counters start at zero, so they count one run.
class EnginePoolClaim {
 public:
  EnginePoolClaim();
  ~EnginePoolClaim();
  EnginePoolClaim(const EnginePoolClaim&) = delete;
  EnginePoolClaim& operator=(const EnginePoolClaim&) = delete;
  ThreadPool& pool() const { return *pool_; }

 private:
  std::optional<ThreadPool> serial_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace valocal
