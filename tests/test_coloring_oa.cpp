#include "algo/coloring_ka.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include <cmath>

#include "baseline/wc_delta_plus1.hpp"
#include "graph/generators.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

TEST(ColoringOa, ProperWithLinearPalette) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(400, a, 21);
    const auto result = compute_coloring_oa(g, {.arboricity = a});
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "a=" << a;
    // Theorem 7.9: O(a) colors — exactly 2(A+1) here.
    EXPECT_LE(result.num_colors, result.palette_bound);
    EXPECT_EQ(result.palette_bound,
              2 * (PartitionParams{.arboricity = a}.threshold() + 1));
  }
}

TEST(ColoringOa, PaletteIndependentOfN) {
  const auto small = compute_coloring_oa(gen::forest_union(256, 3, 2),
                                         {.arboricity = 3});
  const auto large = compute_coloring_oa(gen::forest_union(16384, 3, 2),
                                         {.arboricity = 3});
  EXPECT_EQ(small.palette_bound, large.palette_bound);
}

TEST(ColoringOa, VaBelowWorstCaseOnAdversarialTree) {
  // See ColoringA2.VaWellBelowWorstCaseOnAdversarialTree: the complete
  // (A+1)-ary tree forces Theta(log n / log a) partition rounds while
  // the vertex-averaged complexity stays near the phase-1 span.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const std::size_t n = 262144;
  const Graph g = gen::dary_tree(n, params.threshold() + 1);
  const auto result = compute_coloring_oa(g, params);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LT(result.metrics.vertex_averaged(),
            0.6 * static_cast<double>(result.metrics.worst_case()));
}

TEST(ColoringOa, VaTracksPhase1Schedule) {
  // Every vertex pays at most the phase-1 span plus the straggler tail.
  const std::size_t n = 16384;
  const Graph g = gen::forest_union(n, 2, 19);
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const ColoringKaAlgo algo(n, params,
                            two_phase_segments(n, params.epsilon),
                            PaletteLayout::kInterleaved);
  const auto result = compute_coloring_oa(g, params);
  const std::size_t a_thresh = params.threshold();
  const std::size_t phase1_sets = algo.segments()[0].partition_rounds;
  const double phase1_span =
      static_cast<double>(phase1_sets * (1 + algo.plan_rounds()) +
                          phase1_sets * (a_thresh + 1) + 2);
  const double tail = static_cast<double>(result.metrics.worst_case()) /
                      std::log2(static_cast<double>(n));
  EXPECT_LE(result.metrics.vertex_averaged(), phase1_span + tail + 1.0);
}

TEST(ColoringOa, WorksOnStructuredFamilies) {
  struct Case {
    Graph g;
    std::size_t a;
  };
  std::vector<Case> cases;
  cases.push_back({gen::ring(200), 2});
  cases.push_back({gen::grid(20, 20), 3});
  cases.push_back({gen::random_tree(300, 4), 1});
  cases.push_back({gen::star(150), 1});
  cases.push_back({gen::caterpillar(30, 5), 1});
  for (auto& c : cases) {
    const auto result = compute_coloring_oa(c.g, {.arboricity = c.a});
    EXPECT_TRUE(is_proper_coloring(c.g, result.color));
    EXPECT_LE(result.num_colors, result.palette_bound);
  }
}

TEST(ColoringOa, TinyGraphs) {
  const Graph single(1, {});
  EXPECT_TRUE(is_proper_coloring(
      single, compute_coloring_oa(single, {.arboricity = 1}).color));
  const Graph pair(2, {{0, 1}});
  EXPECT_TRUE(is_proper_coloring(
      pair, compute_coloring_oa(pair, {.arboricity = 1}).color));
}

class OaSweep : public ::testing::TestWithParam<
                    std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(OaSweep, ProperEverywhere) {
  const auto [n, a, eps] = GetParam();
  const Graph g = gen::forest_union(n, a, 13 * n + a);
  const auto result =
      compute_coloring_oa(g, {.arboricity = a, .epsilon = eps});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LE(result.num_colors, result.palette_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OaSweep,
    ::testing::Combine(::testing::Values(128, 1024),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0.5, 1.0, 2.0)));

TEST(WcBaseline, DeltaPlusOneProper) {
  // Exercises the run-to-completion baseline used by the benches.
  const Graph g = gen::erdos_renyi(400, 6.0, 3);
  const auto result = compute_wc_delta_plus1(g);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LE(result.num_colors, g.max_degree() + 1);
  // No early termination: VA == worst case.
  EXPECT_DOUBLE_EQ(result.metrics.vertex_averaged(),
                   static_cast<double>(result.metrics.worst_case()));
}

}  // namespace
}  // namespace valocal
