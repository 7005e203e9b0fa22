#include "algo/coloring_ka.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algo/coloring_ka2.hpp"
#include "algo/segmentation.hpp"
#include "baseline/be08_arb_color.hpp"
#include "graph/generators.hpp"
#include "util/mathx.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

TEST(Segmentation, GeometryInvariants) {
  for (std::size_t n : {256u, 65536u}) {
    for (int k : {2, 3, 4}) {
      const auto segs = make_segments(n, 1.0, k);
      ASSERT_EQ(segs.size(), static_cast<std::size_t>(k));
      EXPECT_EQ(segs.front().paper_index, k);
      EXPECT_EQ(segs.back().paper_index, 1);
      EXPECT_EQ(segs.front().first_hset, 1u);
      std::size_t total = 0;
      for (std::size_t s = 0; s < segs.size(); ++s) {
        EXPECT_EQ(segs[s].partition_rounds,
                  segs[s].last_hset - segs[s].first_hset + 1);
        if (s > 0) {
          EXPECT_EQ(segs[s].first_hset, segs[s - 1].last_hset + 1);
        }
        total += segs[s].partition_rounds;
      }
      EXPECT_GE(total, partition_round_bound(n, 1.0));
      // Earlier segments (larger paper index) are shorter, except that
      // the final segment only absorbs whatever budget remains.
      for (std::size_t s = 1; s + 1 < segs.size(); ++s)
        EXPECT_LE(segs[s - 1].partition_rounds,
                  segs[s].partition_rounds + 1);
      EXPECT_EQ(segment_of_hset(segs, 1), 0u);
      EXPECT_EQ(segment_of_hset(segs, segs.back().last_hset),
                segs.size() - 1);
    }
  }
}

TEST(ColoringKa2, ProperAcrossK) {
  const Graph g = gen::forest_union(2048, 2, 41);
  for (int k : {2, 3, 0 /* = rho(n) */}) {
    const auto result = compute_coloring_ka2(g, {.arboricity = 2}, k);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "k=" << k;
    EXPECT_LE(result.num_colors, result.palette_bound);
  }
}

TEST(ColoringKa2, PaletteGrowsLinearlyInK) {
  const std::size_t n = 4096;
  ColoringKa2Algo k2(n, {.arboricity = 2}, 2);
  ColoringKa2Algo k3(n, {.arboricity = 2}, 3);
  EXPECT_EQ(k2.palette_bound() / 2, k3.palette_bound() / 3);
}

TEST(ColoringKa2, VaDecreasesWithK) {
  // VA ~ log^(k) n + S: on the adversarial tree, larger k means the
  // first segment is shorter, so the average drops (Theorem 7.13).
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(262144, params.threshold() + 1);
  const auto r2 = compute_coloring_ka2(g, params, 2);
  const auto r4 = compute_coloring_ka2(g, params, 4);
  EXPECT_TRUE(is_proper_coloring(g, r2.color));
  EXPECT_TRUE(is_proper_coloring(g, r4.color));
  EXPECT_LE(r4.metrics.vertex_averaged(),
            r2.metrics.vertex_averaged() + 1.0);
  // And both are far below the worst case.
  EXPECT_LT(r4.metrics.vertex_averaged(),
            0.6 * static_cast<double>(r4.metrics.worst_case()));
}

TEST(ColoringKa, ProperWithKaPalette) {
  const Graph g = gen::forest_union(2048, 2, 43);
  for (int k : {2, 3, 0}) {
    const auto result = compute_coloring_ka(g, {.arboricity = 2}, k);
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "k=" << k;
    EXPECT_LE(result.num_colors, result.palette_bound);
    if (k > 0) {
      EXPECT_EQ(result.palette_bound,
                static_cast<std::size_t>(k) *
                    (PartitionParams{.arboricity = 2}.threshold() + 1));
    }
  }
}

TEST(ColoringKa, PaletteIndependentOfN) {
  const auto small = compute_coloring_ka(gen::forest_union(256, 3, 2),
                                         {.arboricity = 3}, 2);
  const auto large = compute_coloring_ka(gen::forest_union(8192, 3, 2),
                                         {.arboricity = 3}, 2);
  EXPECT_EQ(small.palette_bound, large.palette_bound);
}

TEST(ColoringKa, VaBelowWorstCaseOnAdversarialTree) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(262144, params.threshold() + 1);
  const auto result = compute_coloring_ka(g, params, 3);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LT(result.metrics.vertex_averaged(),
            0.6 * static_cast<double>(result.metrics.worst_case()));
}

TEST(Be08Baseline, ProperOaColorsButVaEqualsWorstCase) {
  const Graph g = gen::forest_union(2048, 2, 47);
  const auto result = compute_be08_arb_color(g, {.arboricity = 2});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LE(result.num_colors,
            PartitionParams{.arboricity = 2}.threshold() + 1);
  EXPECT_DOUBLE_EQ(result.metrics.vertex_averaged(),
                   static_cast<double>(result.metrics.worst_case()));
}

TEST(Be08Baseline, WorstCaseGrowsWithLogN) {
  const auto small = compute_be08_arb_color(gen::forest_union(512, 2, 3),
                                            {.arboricity = 2});
  const auto large =
      compute_be08_arb_color(gen::forest_union(32768, 2, 3),
                             {.arboricity = 2});
  EXPECT_GT(large.metrics.worst_case(), small.metrics.worst_case());
}

TEST(SegmentedVsBaseline, PaperHeadline) {
  // Table 1 row 2 regime: O(a log* n) colors with VA O(log* n) versus
  // the baseline's VA = WC = O(a log n), on the adversarial tree.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(65536, params.threshold() + 1);
  const auto ours = compute_coloring_ka2(g, params, 0);
  const auto baseline = compute_be08_arb_color(g, params);
  EXPECT_TRUE(is_proper_coloring(g, ours.color));
  EXPECT_LT(ours.metrics.vertex_averaged(),
            0.25 * baseline.metrics.vertex_averaged());
}

class KaSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 int>> {};

TEST_P(KaSweep, BothSchemesProper) {
  const auto [n, a, k] = GetParam();
  const Graph g = gen::forest_union(n, a, n * 3 + a + k);
  const auto r1 = compute_coloring_ka2(g, {.arboricity = a}, k);
  const auto r2 = compute_coloring_ka(g, {.arboricity = a}, k);
  EXPECT_TRUE(is_proper_coloring(g, r1.color));
  EXPECT_TRUE(is_proper_coloring(g, r2.color));
  EXPECT_LE(r1.num_colors, r1.palette_bound);
  EXPECT_LE(r2.num_colors, r2.palette_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KaSweep,
    ::testing::Combine(::testing::Values(128, 1024),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(2, 3, 0)));

}  // namespace
}  // namespace valocal
