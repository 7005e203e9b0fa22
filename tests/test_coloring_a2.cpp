#include "algo/coloring_ka2.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include <cmath>

#include "graph/generators.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

TEST(ColoringA2, ProperOnForestUnion) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(600, a, 5);
    const auto result = compute_coloring_a2(g, {.arboricity = a});
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "a=" << a;
    EXPECT_LE(result.num_colors, result.palette_bound);
  }
}

TEST(ColoringA2, PaletteIndependentOfN) {
  // Theorem 7.6: O(a^2) colors (modulo the S1 log a factor) — the
  // palette bound must not grow with n.
  const auto small = compute_coloring_a2(gen::forest_union(512, 2, 3),
                                         {.arboricity = 2});
  const auto large = compute_coloring_a2(gen::forest_union(32768, 2, 3),
                                         {.arboricity = 2});
  EXPECT_EQ(small.palette_bound, large.palette_bound);
}

TEST(ColoringA2, VertexAveragedTracksSchedule) {
  // Segment-1 vertices pay exactly t1 + ladder steps; the straggler
  // tail is a small fraction. VA <= t1 + S + tail.
  for (std::size_t n : {1024u, 8192u, 65536u}) {
    const Graph g = gen::forest_union(n, 2, 7);
    const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
    const ColoringKa2Algo algo(n, params,
                               two_phase_segments(n, params.epsilon),
                               PaletteLayout::kInterleaved);
    const auto result = compute_coloring_a2(g, params);
    const double seg1 = static_cast<double>(
        algo.segments()[0].partition_rounds + algo.ladder_steps());
    const double wc = static_cast<double>(result.metrics.worst_case());
    // Stragglers are at most a (2/3)^t1 <= 1/log n fraction.
    const double tail = wc / std::log2(static_cast<double>(n));
    EXPECT_LE(result.metrics.vertex_averaged(), seg1 + tail + 1.0) << n;
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << n;
  }
}

TEST(ColoringA2, VaWellBelowWorstCaseOnAdversarialTree) {
  // Random bounded-arboricity graphs partition in O(loglog n) actual
  // rounds, so segment 2 stays empty and VA == WC. The adversarial
  // family matching the paper's Omega(log n / log a) partition lower
  // bound is the complete (A+1)-ary tree: Procedure Partition peels
  // exactly one level per round.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const std::size_t n = 262144;  // depth log_4 n = 9 > t1
  const Graph g = gen::dary_tree(n, params.threshold() + 1);
  const auto result = compute_coloring_a2(g, params);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LT(result.metrics.vertex_averaged(),
            0.5 * static_cast<double>(result.metrics.worst_case()));
}

TEST(ColoringA2, TinyGraphs) {
  for (std::size_t n : {3u, 4u, 8u}) {
    const Graph g = gen::ring(n);
    const auto result = compute_coloring_a2(g, {.arboricity = 2});
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << n;
  }
  const Graph single(1, {});
  const auto result = compute_coloring_a2(single, {.arboricity = 1});
  EXPECT_TRUE(is_proper_coloring(single, result.color));
}

class A2Sweep : public ::testing::TestWithParam<
                    std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(A2Sweep, ProperEverywhere) {
  const auto [n, a, eps] = GetParam();
  const Graph g = gen::forest_union(n, a, 11 * n + a);
  const auto result =
      compute_coloring_a2(g, {.arboricity = a, .epsilon = eps});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LE(result.num_colors, result.palette_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, A2Sweep,
    ::testing::Combine(::testing::Values(128, 1024, 4096),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0.5, 1.0, 2.0)));

}  // namespace
}  // namespace valocal
