// Frontier contract tests: run_local walks one frontier (the awake
// bitset, fed by the wake calendar), and it must produce byte-identical
// outputs, r(v), and active_per_round to the no-parking reference
// (ScopedNoParking, serial) for every threads x grain combination —
// chunking and parking are throughput choices, never semantic ones.
// Covers the hinted ring 3-coloring, an RNG-drawing unhinted MIS on
// RMAT, and a wait-heavy composition whose vertices idle through most
// of every block.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "algo/hset_composition.hpp"
#include "algo/partition.hpp"
#include "algo/rings.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "sim/network.hpp"

namespace valocal {
namespace {

// Deterministic wait-heavy workload (mirrors bench_common's): a
// composition whose sub terminates after 2 of 24 budgeted sub-rounds,
// so unjoined vertices idle through most of every block.
struct IdleSub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t sub_rounds() const { return 24; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return t >= 1;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

/// Sweeps threads x grain against the serial no-parking reference and
/// checks the semantic triple. Returns the default runs' skipped_steps
/// (identical across the sweep by construction).
template <class A>
std::uint64_t expect_frontier_equivalence(const Graph& g, const A& algo,
                                          std::uint64_t seed) {
  RunResult<A> ref;
  {
    ScopedNoParking no_parking;
    ref = run_local(g, algo, {.seed = seed, .num_threads = 1});
  }
  EXPECT_EQ(ref.metrics.skipped_steps, 0u);
  std::uint64_t skipped = 0;
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t grain : {0u, 7u}) {
      const auto run = run_local(
          g, algo, {.seed = seed, .num_threads = threads, .grain = grain});
      const std::string what = "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain);
      EXPECT_EQ(run.outputs, ref.outputs) << what;
      EXPECT_EQ(run.metrics.rounds, ref.metrics.rounds) << what;
      EXPECT_EQ(run.metrics.active_per_round, ref.metrics.active_per_round)
          << what;
      skipped = run.metrics.skipped_steps;
    }
  }
  return skipped;
}

TEST(FrontierEngine, RingColoringIsByteIdenticalAcrossSchedules) {
  const Graph g = gen::ring(2048);
  const RingColoring3Algo algo(g.num_vertices());
  EXPECT_GT(expect_frontier_equivalence(g, algo, 0x5eed), 0u);
}

TEST(FrontierEngine, RandomizedMisOnRmatIsByteIdenticalAcrossSchedules) {
  // RNG-drawing algorithm: identical outputs across schedules prove the
  // per-vertex streams advance identically whatever the chunking.
  const Graph g = gen::rmat(gen::parse_rmat_spec("12x8", 7));
  const LubyMisAlgo algo;
  for (std::uint64_t seed : {1u, 4242u})
    EXPECT_EQ(expect_frontier_equivalence(g, algo, seed), 0u) << seed;
}

TEST(FrontierEngine, WaitHeavyCompositionIsByteIdenticalAcrossSchedules) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1500, params.threshold() + 1);
  const HSetComposition<IdleSub> algo(g.num_vertices(), params,
                                      IdleSub{});
  EXPECT_GT(expect_frontier_equivalence(g, algo, 0x5eed), 0u);
}

}  // namespace
}  // namespace valocal
