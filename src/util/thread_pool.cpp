#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace valocal {

ThreadPool::ThreadPool(std::size_t num_threads) {
  VALOCAL_REQUIRE(num_threads <= kMaxPoolThreads,
                  "thread count above the pool ceiling");
  const std::size_t spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  load_.resize(spawned + 1);
  for (std::size_t i = 0; i < spawned; ++i)
    workers_.emplace_back([this, slot = i + 1] { worker_loop(slot); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::run_chunks(Job& job, std::size_t slot) {
  std::size_t done_here = 0;
  std::uint64_t indices_here = 0;
  for (std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
       c < job.num_chunks;
       c = job.next.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t begin = c * job.grain;
    const std::size_t end = std::min(job.total, begin + job.grain);
    (*job.fn)(c, begin, end);
    ++done_here;
    indices_here += end - begin;
  }
  if (done_here == 0) return false;
  // Publish the load slot BEFORE signalling chunk completion so the
  // dispatcher's acquire on chunks_done orders the reads.
  load_[slot].chunks += done_here;
  load_[slot].indices += indices_here;
  return job.chunks_done.fetch_add(done_here, std::memory_order_acq_rel) +
             done_here ==
         job.num_chunks;
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::shared_ptr<Job> job = job_;
    lock.unlock();
    const bool finished_job = job != nullptr && run_chunks(*job, slot);
    lock.lock();
    // The notification must happen with the mutex held so the
    // dispatcher cannot check the predicate and sleep in between.
    if (finished_job) done_cv_.notify_all();
  }
}

void ThreadPool::dispatch(
    std::size_t total, std::size_t grain, std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        fn) {
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->total = total;
  job->grain = grain;
  job->num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  run_chunks(*job, 0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return job->chunks_done.load(std::memory_order_acquire) ==
           job->num_chunks;
  });
  job_.reset();
}

namespace {

/// The pool is read and replaced only under a claim; the config is
/// atomic because unclaimed runs read it too.
struct EnginePool {
  std::atomic<bool> claimed{false};
  std::atomic<std::size_t> threads{1}, grain{0};
  std::unique_ptr<ThreadPool> pool = std::make_unique<ThreadPool>(1);

  bool claim() {
    bool free = false;
    return claimed.compare_exchange_strong(free, true);
  }
};

EnginePool& engine() {
  static EnginePool pool;
  return pool;
}

}  // namespace

EngineConfig engine_config() {
  return {engine().threads, engine().grain};
}

void set_engine_config(EngineConfig config) {
  EnginePool& e = engine();
  VALOCAL_REQUIRE(e.claim(), "engine configuration changed while a run "
                             "holds the engine pool");
  config.threads = std::max<std::size_t>(1, config.threads);
  if (config.threads != e.pool->num_threads()) {
    e.pool.reset();  // joins the old workers before new ones start
    e.pool = std::make_unique<ThreadPool>(config.threads);
  }
  e.threads = config.threads;
  e.grain = config.grain;
  e.claimed = false;
}

EnginePoolClaim::EnginePoolClaim() {
  if (!engine().claim()) {
    pool_ = &serial_.emplace(1);
    return;
  }
  pool_ = engine().pool.get();
  pool_->reset_load();
}

EnginePoolClaim::~EnginePoolClaim() {
  if (!serial_) engine().claimed = false;
}

}  // namespace valocal
