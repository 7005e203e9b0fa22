#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "algo/bgko22.hpp"
#include "algo/rand_a_loglog.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "validate/validate.hpp"

#include "fingerprint.hpp"

namespace valocal {
namespace {

const Graph& pin_graph() {
  static const Graph g = gen::erdos_renyi(2000, 8.0, 17);
  return g;
}

// RMAT s12: hubs of a few hundred neighbors next to degree-1 leaves, so
// the MIS resolve's early exits fire at every position of a long list.
const Graph& pin_rmat() {
  static const Graph g =
      gen::rmat({.scale = 12, .edge_factor = 8, .seed = 5});
  return g;
}

// Outputs and r(v) of the randomized entries whose step bodies were
// rewritten for speed, pinned to the values the original bodies
// produced: the draws, the picks and the schedule must not move.
TEST(RandomizedPins, RandDeltaPlusOneOutputsAndRounds) {
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pins = {
      {1, 0x60fcfc4f929857dfULL}, {2, 0xef78ccf128d8bdfcULL}};
  for (const auto& [seed, pinned] : pins) {
    const auto result = compute_rand_delta_plus1(pin_graph(), seed);
    EXPECT_TRUE(is_proper_coloring(pin_graph(), result.color)) << seed;
    EXPECT_EQ(fingerprint(result.color, result.metrics.rounds), pinned)
        << "seed " << seed;
  }
}

TEST(RandomizedPins, BgkoMatchingOutputsAndRounds) {
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pins = {
      {1, 0xc9fb1719f0861fadULL}, {2, 0xa0ccf0bfae22ae9dULL}};
  for (const auto& [seed, pinned] : pins) {
    const auto run = run_local(pin_graph(), BgkoMatchingAlgo{}, {.seed = seed});
    EXPECT_EQ(fingerprint(run.outputs, run.metrics.rounds), pinned)
        << "seed " << seed;
    // The partner map is an involution on the matched vertices.
    for (Vertex v = 0; v < pin_graph().num_vertices(); ++v) {
      const std::int64_t p = run.outputs[v];
      if (p < 0) continue;
      ASSERT_LT(static_cast<std::size_t>(p), run.outputs.size());
      EXPECT_EQ(run.outputs[static_cast<std::size_t>(p)],
                static_cast<std::int64_t>(v))
          << "seed " << seed << " v " << v;
    }
  }
}

// Cliques whose palette Delta+1 sits at and around the 64-color word
// boundaries of the draw's free-color mask; a clique uses every color,
// so the last draws pick from the top word's highest bits.
TEST(RandomizedPins, RandDeltaPlusOneAtPaletteWordBoundaries) {
  const std::vector<std::pair<std::size_t, std::uint64_t>> pins = {
      {63, 0xae048480323f88e4ULL}, {64, 0x5967bd945b667b51ULL},
      {65, 0xc26017d795fd614fULL}, {66, 0x2b9b4fad91ae6c76ULL},
      {129, 0x3bc88d083531b569ULL}};
  for (const auto& [k, pinned] : pins) {
    const Graph g = gen::complete(k);
    const auto result = compute_rand_delta_plus1(g, 7);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "K_" << k;
    EXPECT_EQ(result.num_colors, k);
    EXPECT_EQ(fingerprint(result.color, result.metrics.rounds), pinned)
        << "K_" << k;
  }
}

struct MisPin {
  const Graph& (*graph)();
  const char* what;
  std::uint64_t seed;
  std::uint64_t pinned;
};

template <class Compute>
void expect_mis_pins(const std::vector<MisPin>& pins, Compute compute) {
  for (const MisPin& pin : pins) {
    const Graph& g = pin.graph();
    const MisResult result = compute(g, pin.seed);
    EXPECT_TRUE(is_mis(g, result.in_set)) << pin.what << " " << pin.seed;
    EXPECT_EQ(fingerprint(result.in_set, result.metrics.rounds), pin.pinned)
        << pin.what << " seed " << pin.seed;
  }
}

TEST(RandomizedPins, BgkoMisOutputsAndRounds) {
  expect_mis_pins({{pin_graph, "er", 1, 0x3718d3698265dc6aULL},
                   {pin_graph, "er", 2, 0xb2d5a652c6631968ULL},
                   {pin_rmat, "rmat", 1, 0x02990569373a4e05ULL},
                   {pin_rmat, "rmat", 2, 0x2261315ee21e4c97ULL}},
                  [](const Graph& g, std::uint64_t seed) {
                    return compute_bgko_mis(g, seed);
                  });
}

TEST(RandomizedPins, LubyOutputsAndRounds) {
  expect_mis_pins({{pin_graph, "er", 1, 0x32a9322a039e7b69ULL},
                   {pin_graph, "er", 2, 0x0f80952a52cba16eULL},
                   {pin_rmat, "rmat", 1, 0x3ee38f1c9bc8dbc1ULL},
                   {pin_rmat, "rmat", 2, 0xa348e7c2c6770f4dULL}},
                  [](const Graph& g, std::uint64_t seed) {
                    return compute_luby_mis(g, seed);
                  });
}

TEST(RandDeltaPlusOne, ProperWithDeltaPlusOne) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = gen::erdos_renyi(800, 6.0, seed);
    const auto result = compute_rand_delta_plus1(g, seed);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << seed;
    EXPECT_LE(result.num_colors, g.max_degree() + 1);
  }
}

TEST(RandDeltaPlusOne, Theorem91ConstantVertexAveraged) {
  // VA must stay O(1) (small constant) across two orders of magnitude.
  for (std::size_t n : {1024u, 16384u, 65536u}) {
    const Graph g = gen::forest_union(n, 3, 7);
    const auto result = compute_rand_delta_plus1(g, 99);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << n;
    // Each 2-round trial succeeds w.p. >= 1/4: VA <= 2 * 4 plus slack.
    EXPECT_LE(result.metrics.vertex_averaged(), 12.0) << n;
  }
}

TEST(RandDeltaPlusOne, Reproducible) {
  const Graph g = gen::erdos_renyi(300, 5.0, 4);
  const auto r1 = compute_rand_delta_plus1(g, 42);
  const auto r2 = compute_rand_delta_plus1(g, 42);
  EXPECT_EQ(r1.color, r2.color);
}

TEST(RandDeltaPlusOne, WorksOnCompleteGraph) {
  const Graph g = gen::complete(40);
  const auto result = compute_rand_delta_plus1(g, 5);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_EQ(result.num_colors, 40u);  // clique forces all Delta+1 colors
}

TEST(RandALogLog, ProperWithALogLogPalette) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(2048, a, 61);
    const auto result = compute_rand_a_loglog(g, {.arboricity = a}, 11);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "a=" << a;
    EXPECT_LE(result.num_colors, result.palette_bound);
  }
}

TEST(RandALogLog, PaletteIsALogLogN) {
  RandALogLogAlgo small(1024, {.arboricity = 2});
  RandALogLogAlgo large(1 << 20, {.arboricity = 2});
  // (t+1)(A+1) with t = floor(2 loglog n): grows only with loglog n.
  EXPECT_LE(large.palette_bound(), small.palette_bound() * 3);
}

TEST(RandALogLog, Theorem92ConstantVertexAveraged) {
  for (std::size_t n : {1024u, 16384u}) {
    const Graph g = gen::forest_union(n, 2, 67);
    const auto result = compute_rand_a_loglog(g, {.arboricity = 2}, 23);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << n;
    EXPECT_LE(result.metrics.vertex_averaged(), 16.0) << n;
  }
}

TEST(RandALogLog, AdversarialTreeStillConstantVa) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(65536, params.threshold() + 1);
  const auto result = compute_rand_a_loglog(g, params, 31);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  // Worst case is driven by the phase-2 dataflow chain (log-ish), the
  // average stays small.
  EXPECT_LT(result.metrics.vertex_averaged(),
            static_cast<double>(result.metrics.worst_case()));
  EXPECT_LE(result.metrics.vertex_averaged(), 16.0);
}

TEST(LubyMis, ValidAndLogRounds) {
  for (std::uint64_t seed : {1ULL, 9ULL}) {
    const Graph g = gen::erdos_renyi(2000, 8.0, seed);
    const auto result = compute_luby_mis(g, seed);
    EXPECT_TRUE(is_mis(g, result.in_set)) << seed;
    // O(log n) w.h.p. — generous cap (2 engine rounds per trial).
    EXPECT_LE(result.metrics.worst_case(), 2u * 40u);
  }
}

TEST(LubyMis, Reproducible) {
  const Graph g = gen::forest_union(500, 3, 71);
  const auto r1 = compute_luby_mis(g, 8);
  const auto r2 = compute_luby_mis(g, 8);
  EXPECT_EQ(r1.in_set, r2.in_set);
}

class RandSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(RandSweep, BothColoringsProper) {
  const auto [n, a, seed] = GetParam();
  const Graph g = gen::forest_union(n, a, seed * 131);
  const auto r1 = compute_rand_delta_plus1(g, seed);
  EXPECT_TRUE(is_proper_coloring(g, r1.color));
  const auto r2 = compute_rand_a_loglog(g, {.arboricity = a}, seed);
  EXPECT_TRUE(is_proper_coloring(g, r2.color));
  EXPECT_TRUE(is_mis(g, compute_luby_mis(g, seed).in_set));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandSweep,
    ::testing::Combine(::testing::Values(128, 1024),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace valocal
