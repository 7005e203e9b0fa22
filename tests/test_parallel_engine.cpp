// Serial-vs-parallel equivalence suite for the round engine.
//
// The engine's contract (sim/network.hpp): for fixed (graph,
// algorithm, seed), outputs, Metrics::rounds and
// Metrics::active_per_round are byte-identical for EVERY EngineConfig
// threads/grain combination. Thread count varies which worker
// executes a chunk; grain varies the chunk partition itself, so the
// {grain 1, grain 3, grain 64} sweep exercises genuinely different
// active-set iteration orders (with > 1 worker, chunk claiming is
// scheduler-dependent on top). Regression tests for the
// commit-snapshot bugfix and for the engine-pool claim ride along.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "algo/mis.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "algo/rings.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace valocal {
namespace {

/// Runs `algo` serially and under every thread/grain combination of
/// the suite, asserting byte-identical outputs and semantic metrics.
template <class A>
void expect_parallel_equivalence(const Graph& g, const A& algo,
                                 std::uint64_t seed = 0x5eedULL) {
  const auto serial = run_local(g, algo, {.seed = seed});
  EXPECT_EQ(serial.metrics.round_wall_ns.size(),
            serial.metrics.active_per_round.size());
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t grain : {1u, 3u, 64u}) {
      const ScopedEngineConfig config(
          {.threads = threads, .grain = grain});
      const auto par = run_local(g, algo, {.seed = seed});
      const std::string label = "threads=" + std::to_string(threads) +
                                " grain=" + std::to_string(grain);
      EXPECT_EQ(par.outputs, serial.outputs) << label;
      EXPECT_EQ(par.metrics.rounds, serial.metrics.rounds) << label;
      EXPECT_EQ(par.metrics.active_per_round,
                serial.metrics.active_per_round)
          << label;
    }
  }
}

TEST(ParallelEngine, LubyMisEquivalence) {
  expect_parallel_equivalence(gen::erdos_renyi(1500, 6.0, 11),
                              LubyMisAlgo{}, 77);
}

TEST(ParallelEngine, RandDeltaPlusOneEquivalence) {
  const Graph g = gen::erdos_renyi(1200, 5.0, 13);
  expect_parallel_equivalence(g, RandDeltaPlusOneAlgo(g.max_degree()),
                              31);
}

TEST(ParallelEngine, RingLeaderElectionEquivalence) {
  // Exercises kCommit under the parallel path: resigned candidates
  // keep relaying after their output froze.
  expect_parallel_equivalence(gen::ring(801), LeaderElectionAlgo{});
}

TEST(ParallelEngine, RingThreeColoringEquivalence) {
  const Graph g = gen::ring(777);
  expect_parallel_equivalence(g, RingColoring3Algo(g.num_vertices()));
}

TEST(ParallelEngine, ComputeEntryPointsHonorTheProcessDefault) {
  // compute_* wrappers pass default RunOptions, so the engine config
  // must flow through them — and must not change any result.
  const Graph g = gen::erdos_renyi(2000, 4.0, 17);
  const auto serial = compute_mis(g, {.arboricity = 2});
  const auto luby_serial = compute_luby_mis(g, 5);
  {
    const ScopedEngineConfig config({.threads = 8});
    const auto par = compute_mis(g, {.arboricity = 2});
    EXPECT_EQ(par.in_set, serial.in_set);
    EXPECT_EQ(par.metrics.rounds, serial.metrics.rounds);
    const auto luby_par = compute_luby_mis(g, 5);
    EXPECT_EQ(luby_par.in_set, luby_serial.in_set);
    EXPECT_EQ(luby_par.metrics.active_per_round,
              luby_serial.metrics.active_per_round);
  }
  EXPECT_EQ(engine_threads(), 1u);
}

TEST(ParallelEngine, SchedulerIndependenceUnderRepetition) {
  // With 8 workers and grain 1 every run realizes a different dynamic
  // chunk→worker assignment; repeated runs must still match serial.
  const Graph g = gen::erdos_renyi(900, 6.0, 23);
  const auto serial = run_local(g, LubyMisAlgo{}, {.seed = 3});
  const ScopedEngineConfig config({.threads = 8, .grain = 1});
  for (int rep = 0; rep < 3; ++rep) {
    const auto par = run_local(g, LubyMisAlgo{}, {.seed = 3});
    EXPECT_EQ(par.outputs, serial.outputs) << "rep " << rep;
    EXPECT_EQ(par.metrics.rounds, serial.metrics.rounds)
        << "rep " << rep;
  }
}

// Regression (commit semantics): kCommit fixes the output at commit
// time; the vertex keeps executing, and later state mutations must not
// leak into the reported output. The pre-fix engine recomputed
// output() from the FINAL state and returned 99 here.
struct CommitThenMutate {
  struct State {
    int value = 0;
  };
  using Output = int;

  void init(Vertex, const Graph&, State&) const {}
  StepResult step(Vertex, std::size_t round, const RoundView<State>&,
                  State& next, Xoshiro256&) const {
    if (round == 1) {
      next.value = 42;
      return StepResult::kCommit;
    }
    next.value = 99;  // post-commit relay work
    return round >= 3 ? StepResult::kTerminate : StepResult::kContinue;
  }
  Output output(Vertex, const State& s) const { return s.value; }
};

TEST(ParallelEngine, CommitFreezesOutputAndRoundStamp) {
  const Graph g = gen::ring(6);
  for (std::size_t threads : {1u, 4u}) {
    const ScopedEngineConfig config({.threads = threads, .grain = 1});
    const auto result =
        run_local(g, CommitThenMutate{}, {.want_final_states = true});
    for (Vertex v = 0; v < 6; ++v) {
      EXPECT_EQ(result.outputs[v], 42) << "threads=" << threads;
      EXPECT_EQ(result.metrics.rounds[v], 1u) << "threads=" << threads;
      // The vertex really did keep executing after the commit.
      EXPECT_EQ(result.final_states[v].value, 99);
    }
    EXPECT_EQ(result.metrics.active_per_round.size(), 3u);
  }
}

TEST(ParallelEngine, PerRoundWallClockIsRecorded) {
  const Graph g = gen::erdos_renyi(400, 4.0, 29);
  const ScopedEngineConfig config({.threads = 2});
  const auto result = run_local(g, LubyMisAlgo{});
  EXPECT_EQ(result.metrics.round_wall_ns.size(),
            result.metrics.active_per_round.size());
  EXPECT_EQ(result.metrics.total_wall_ns(),
            [&] {
              std::uint64_t s = 0;
              for (auto ns : result.metrics.round_wall_ns) s += ns;
              return s;
            }());
}

TEST(EnginePool, ConcurrentUserThreadsMatchTheSerialRun) {
  // One user thread claims the pool, the other finds it claimed and
  // runs serially (or both claim in turn); either way both results are
  // the serial run's, byte for byte.
  const Graph g = gen::erdos_renyi(1 << 12, 8.0, 41);
  const auto serial = run_local(g, LubyMisAlgo{}, {.seed = 19});
  const ScopedEngineConfig config({.threads = 4});
  RunResult<LubyMisAlgo> runs[2];
  auto run_into = [&](std::size_t i) {
    runs[i] = run_local(g, LubyMisAlgo{}, {.seed = 19});
  };
  std::thread first(run_into, 0);
  std::thread second(run_into, 1);
  first.join();
  second.join();
  for (const auto& run : runs) {
    EXPECT_EQ(run.outputs, serial.outputs);
    EXPECT_EQ(run.metrics.rounds, serial.metrics.rounds);
    EXPECT_EQ(run.metrics.active_per_round,
              serial.metrics.active_per_round);
  }
}

/// Changes the engine config from inside a step, which the claim the
/// run holds forbids.
struct ReconfiguresMidRun {
  struct State {};
  using Output = int;
  void init(Vertex, const Graph&, State&) const {}
  bool step(Vertex, std::size_t, const RoundView<State>&, State&,
            Xoshiro256&) const {
    set_engine_threads(2);
    return true;
  }
  Output output(Vertex, const State&) const { return 0; }
};

TEST(EnginePoolDeathTest, ReconfiguringFromAStepDies) {
  // Engine threads 1: no worker is alive when the death test forks.
  ASSERT_EQ(engine_threads(), 1u);
  const Graph g = gen::ring(8);
  EXPECT_DEATH((void)run_local(g, ReconfiguresMidRun{}),
               "while a run holds the engine pool");
}

TEST(EnginePoolDeathTest, ChildReconfiguresWhileWorkersAreAlive) {
  // A plain-fork child inherits the pool but not its workers, so
  // rebuilding the pool there joins threads that do not exist (the
  // child dies without the message). The test main's "threadsafe"
  // death-test style re-executes the binary, and the child starts from
  // a pool of its own.
  const ScopedEngineConfig parent({.threads = 4, .grain = 0});
  EXPECT_DEATH(
      {
        set_engine_threads(3);
        VALOCAL_REQUIRE(false, "child reconfigured");
      },
      "child reconfigured");
}

TEST(ThreadPoolDeathTest, ThreadCountAboveTheCeilingDies) {
  // The check fires in the constructor before any worker starts.
  EXPECT_DEATH(ThreadPool(kMaxPoolThreads + 1), "ceiling");
}

TEST(ThreadPool, ChunkIndexingCoversTheRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  std::vector<std::size_t> chunk_of(1000, ~std::size_t{0});
  for (std::size_t grain : {1u, 7u, 250u, 5000u}) {
    for (auto& h : hits) h = 0;
    pool.parallel_for_chunks(hits.size(), grain,
                             [&](std::size_t chunk, std::size_t begin,
                                 std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 ++hits[i];
                                 chunk_of[i] = chunk;
                               }
                             });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "grain " << grain << " index " << i;
      ASSERT_EQ(chunk_of[i], i / grain);
    }
  }
  pool.parallel_for_chunks(0, 8, [&](std::size_t, std::size_t,
                                     std::size_t) { FAIL(); });
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  // The engine dispatches once per round; hammer the fork-join path.
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  for (int job = 0; job < 200; ++job) {
    pool.parallel_for_chunks(64, 1,
                             [&](std::size_t, std::size_t begin,
                                 std::size_t) { sum += begin; });
  }
  EXPECT_EQ(sum.load(), 200u * (64u * 63u / 2));
}

}  // namespace
}  // namespace valocal
