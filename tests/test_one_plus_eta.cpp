#include "algo/one_plus_eta.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "algo/arbdefective.hpp"
#include "algo/partition.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "validate/validate.hpp"

#include "fingerprint.hpp"

namespace valocal {
namespace {

TEST(Arbdefective, ClassesHaveReducedArboricity) {
  // k = t = 10 on an arboricity-8 graph: classes must have arbdefect
  // <= floor(a/t + 4a/k) = floor(8/10 + 32/10) = 4.
  const Graph g = gen::forest_union(800, 8, 3);
  const auto result = arbdefective_coloring(g, 8, 10, 10);
  std::vector<int> classes(result.color.begin(), result.color.end());
  for (int c : classes) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 10);
  }
  // Degeneracy over-estimates arboricity by at most 2x.
  EXPECT_LE(coloring_arbdefect_ub(g, classes), 2u * 4u);
  EXPECT_GT(result.duration, 0u);
}

TEST(Arbdefective, SingleClassDegeneratesToWholeGraph) {
  const Graph g = gen::forest_union(200, 4, 7);
  const auto result = arbdefective_coloring(g, 4, 1, 1);
  for (auto c : result.color) EXPECT_EQ(c, 0u);
}

TEST(Arbdefective, HVariantUsesSuppliedPartition) {
  const Graph g = gen::forest_union(300, 4, 9);
  const PartitionParams params{.arboricity = 4, .epsilon = 2.0};
  const auto partition = compute_h_partition(g, params);
  const auto result = h_arbdefective_coloring(
      g, partition.hset, partition.threshold, 8, 8);
  for (auto c : result.color) EXPECT_LT(c, 8u);
  std::vector<int> classes(result.color.begin(), result.color.end());
  // floor(a/t + 4a/k) = floor(4/8 + 16/8) = 2; degeneracy <= 2*2.
  EXPECT_LE(coloring_arbdefect_ub(g, classes), 4u);
}

TEST(LegalColoring, ProperWithBoundedPalette) {
  const Graph g = gen::forest_union(600, 12, 5);
  const auto result = legal_coloring(g, 12, 8);
  std::vector<int> colors(result.color.begin(), result.color.end());
  EXPECT_TRUE(is_proper_coloring(g, colors));
  EXPECT_LE(count_colors(colors), result.palette);
  // Every vertex is charged the same synchronized duration.
  for (auto r : result.rounds) EXPECT_EQ(r, result.rounds[0]);
}

TEST(LegalColoring, SmallArboricitySkipsRefinement) {
  const Graph g = gen::forest_union(300, 2, 11);
  const auto result = legal_coloring(g, 2, 8);
  std::vector<int> colors(result.color.begin(), result.color.end());
  EXPECT_TRUE(is_proper_coloring(g, colors));
}

TEST(OnePlusEta, BaseCaseMatchesKa2) {
  // a < C: the base case must behave like Section 7.6.
  const Graph g = gen::forest_union(500, 2, 13);
  const auto result =
      compute_one_plus_eta(g, {.arboricity = 2, .big_c = 8});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
}

TEST(OnePlusEta, ProperOnHighArboricity) {
  for (std::size_t a : {8u, 16u, 32u}) {
    const Graph g = gen::forest_union(600, a, 17);
    const auto result =
        compute_one_plus_eta(g, {.arboricity = a, .big_c = 8});
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "a=" << a;
    EXPECT_LE(result.num_colors, result.palette_bound);
  }
}

TEST(OnePlusEta, RecursionEngages) {
  // a = 2C guarantees at least one recursive level; the round counts
  // must reflect the staged schedule (nonzero, varying across vertices
  // only between branches).
  const Graph g = gen::forest_union(2000, 16, 19);
  const auto result =
      compute_one_plus_eta(g, {.arboricity = 16, .big_c = 8});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  for (auto r : result.metrics.rounds) EXPECT_GT(r, 0u);
  EXPECT_GT(result.metrics.worst_case(), 0u);
  EXPECT_LE(result.metrics.vertex_averaged(),
            static_cast<double>(result.metrics.worst_case()));
}

TEST(OnePlusEta, RecursiveBranchOutputsAndRoundsArePinned) {
  // a = 2C runs the recursive branch, whose first r H-sets come from
  // Procedure Partition; colors and r(v) are pinned to the values of
  // the centralized bounded-partition loop the branch used before it
  // ran the engine's Partition.
  const Graph g = gen::forest_union(1 << 11, 16, 7);
  const auto result =
      compute_one_plus_eta(g, {.arboricity = 16, .big_c = 8});
  ASSERT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_EQ(fingerprint(result.color, result.metrics.rounds),
            0xb9ee6583cc3bea51ULL);
}

TEST(OnePlusEta, PaletteSublinearInNForFixedA) {
  const auto small = compute_one_plus_eta(gen::forest_union(512, 8, 3),
                                          {.arboricity = 8});
  const auto large = compute_one_plus_eta(gen::forest_union(8192, 8, 3),
                                          {.arboricity = 8});
  // Colors used depend on a, not n (up to stragglers).
  EXPECT_LE(large.num_colors, 4 * small.num_colors + 64);
}

TEST(OnePlusEta, RejectsTooSmallC) {
  const Graph g = gen::ring(8);
  EXPECT_DEATH(
      (void)compute_one_plus_eta(g, {.arboricity = 2, .big_c = 4}),
      "Legal-Coloring");
}

class OnePlusEtaSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(OnePlusEtaSweep, Proper) {
  const auto [n, a] = GetParam();
  const Graph g = gen::forest_union(n, a, n + 7 * a);
  const auto result = compute_one_plus_eta(g, {.arboricity = a});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OnePlusEtaSweep,
    ::testing::Combine(::testing::Values(200, 1000),
                       ::testing::Values(2, 8, 12, 24)));

}  // namespace
}  // namespace valocal
