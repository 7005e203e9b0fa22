#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algo/delta_plus1.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/extension.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "graph/generators.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

TEST(CompositionSchedule, RoundArithmetic) {
  const CompositionSchedule s(1024, 1.0, 5);
  EXPECT_EQ(s.block(), 6u);
  EXPECT_EQ(s.iteration(1), 1u);
  EXPECT_EQ(s.position(1), 0u);
  EXPECT_EQ(s.iteration(6), 1u);
  EXPECT_EQ(s.position(6), 5u);
  EXPECT_EQ(s.iteration(7), 2u);
  EXPECT_EQ(s.position(7), 0u);
  EXPECT_EQ(s.total_rounds(), s.ell * 6);
}

TEST(DeltaPlusOne, ProperWithDeltaPlusOneColors) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(500, a, 51);
    const auto result = compute_delta_plus1(g, {.arboricity = a});
    EXPECT_TRUE(is_proper_coloring(g, result.color)) << "a=" << a;
    EXPECT_LE(result.num_colors, g.max_degree() + 1);
  }
}

TEST(DeltaPlusOne, StarUnionUsesAFewColorsDespiteHugeDelta) {
  // Table 1 row 7 regime: Delta >> a. The palette is Delta+1 as
  // required, but the VA complexity must track a, not Delta.
  const Graph g = gen::star_union(4000, 8);
  const auto result = compute_delta_plus1(g, {.arboricity = 2});
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  DeltaPlusOneAlgo algo(g.num_vertices(), g.max_degree(),
                        {.arboricity = 2});
  // Every vertex terminates within a few iteration blocks.
  EXPECT_LE(result.metrics.vertex_averaged(),
            3.0 * static_cast<double>(algo.schedule().block()));
}

TEST(Mis, ValidOnManyFamilies) {
  struct Case {
    Graph g;
    std::size_t a;
  };
  std::vector<Case> cases;
  cases.push_back({gen::forest_union(600, 3, 53), 3});
  cases.push_back({gen::ring(101), 2});
  cases.push_back({gen::star(200), 1});
  cases.push_back({gen::grid(15, 15), 3});
  cases.push_back({gen::star_union(1000, 5), 2});
  for (auto& c : cases) {
    const auto result = compute_mis(c.g, {.arboricity = c.a});
    EXPECT_TRUE(is_mis(c.g, result.in_set));
  }
}

TEST(Mis, VaTracksAPlusLogStarNotLogN) {
  // VA must stay within a few blocks of the schedule (= O(a log a +
  // log* n)) even as n grows.
  for (std::size_t n : {1024u, 8192u}) {
    const Graph g = gen::forest_union(n, 2, 55);
    MisAlgo algo(n, {.arboricity = 2});
    const auto result = compute_mis(g, {.arboricity = 2});
    EXPECT_TRUE(is_mis(g, result.in_set)) << n;
    EXPECT_LE(result.metrics.vertex_averaged(),
              3.0 * static_cast<double>(algo.schedule().block()))
        << n;
  }
}

TEST(EdgeColoring, ProperWithTwoDeltaMinusOneColors) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(400, a, 57);
    const auto result = compute_edge_coloring(g, {.arboricity = a});
    EXPECT_TRUE(is_proper_edge_coloring(g, result.color)) << "a=" << a;
    EXPECT_LE(result.num_colors, 2 * g.max_degree() - 1);
  }
}

TEST(EdgeColoring, StarUnionHighDelta) {
  const Graph g = gen::star_union(2000, 4);
  const auto result = compute_edge_coloring(g, {.arboricity = 2});
  EXPECT_TRUE(is_proper_edge_coloring(g, result.color));
  EXPECT_LE(result.num_colors, 2 * g.max_degree() - 1);
}

TEST(Matching, MaximalOnManyFamilies) {
  struct Case {
    Graph g;
    std::size_t a;
  };
  std::vector<Case> cases;
  cases.push_back({gen::forest_union(600, 3, 59), 3});
  cases.push_back({gen::ring(100), 2});
  cases.push_back({gen::ring(101), 2});
  cases.push_back({gen::star(150), 1});
  cases.push_back({gen::grid(12, 17), 3});
  cases.push_back({gen::star_union(900, 4), 2});
  for (auto& c : cases) {
    const auto result = compute_matching(c.g, {.arboricity = c.a});
    EXPECT_TRUE(is_maximal_matching(c.g, result.in_matching));
  }
}

TEST(AllProblems, AdversarialTreeShowsVaWorstCaseGap) {
  // Table 2 shape: on the (A+1)-ary tree (partition worst case
  // Theta(log n / log a)), the VA of MIS / EC / MM stays near one
  // iteration block while the worst case spans many blocks.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(65536, params.threshold() + 1);

  const auto mis = compute_mis(g, params);
  EXPECT_TRUE(is_mis(g, mis.in_set));
  EXPECT_LT(mis.metrics.vertex_averaged(),
            0.5 * static_cast<double>(mis.metrics.worst_case()));

  const auto mm = compute_matching(g, params);
  EXPECT_TRUE(is_maximal_matching(g, mm.in_matching));
  EXPECT_LT(mm.metrics.vertex_averaged(),
            0.5 * static_cast<double>(mm.metrics.worst_case()));

  const auto ec = compute_edge_coloring(g, params);
  EXPECT_TRUE(is_proper_edge_coloring(g, ec.color));
  EXPECT_LT(ec.metrics.vertex_averaged(),
            0.5 * static_cast<double>(ec.metrics.worst_case()));
}

TEST(Definition81, ExtendsAnyPartialSolutionUnchanged) {
  // Definition 8.1: a proper partial solution is extended without being
  // modified. Pre-color the even vertices greedily, extend, verify.
  const Graph g = gen::forest_union(400, 3, 211);
  std::vector<std::int32_t> partial(g.num_vertices(), -1);
  for (Vertex v = 0; v < g.num_vertices(); v += 2) {
    std::vector<char> taken(g.max_degree() + 1, 0);
    for (Vertex u : g.neighbors(v))
      if (partial[u] >= 0) taken[partial[u]] = 1;
    std::int32_t c = 0;
    while (taken[c]) ++c;
    partial[v] = c;
  }
  const auto result =
      extend_delta_plus1(g, {.arboricity = 3}, partial);
  EXPECT_TRUE(is_proper_coloring(g, result.color));
  EXPECT_LE(count_colors(result.color), g.max_degree() + 1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (partial[v] >= 0) {
      EXPECT_EQ(result.color[v], partial[v]) << v;
    }
  }
  // Preset vertices terminate in round 1.
  for (Vertex v = 0; v < g.num_vertices(); v += 2)
    EXPECT_EQ(result.metrics.rounds[v], 1u);
}

TEST(Definition81, EmptyAndFullPartialSolutions) {
  const Graph g = gen::ring(30);
  // Empty partial solution: equivalent to the plain algorithm.
  const auto empty = extend_delta_plus1(
      g, {.arboricity = 2}, std::vector<std::int32_t>(30, -1));
  EXPECT_TRUE(is_proper_coloring(g, empty.color));
  // Full partial solution: nothing to do, everyone stops in round 1.
  std::vector<std::int32_t> full(30);
  for (Vertex v = 0; v < 30; ++v) full[v] = static_cast<std::int32_t>(v % 3 == 0 && v + 1 == 30 ? 2 : v % 2);
  full[29] = 2;  // close the odd cycle properly
  const auto done = extend_delta_plus1(g, {.arboricity = 2}, full);
  EXPECT_TRUE(is_proper_coloring(g, done.color));
  EXPECT_EQ(done.metrics.worst_case(), 1u);
}

class ExtensionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(ExtensionSweep, AllFourProblems) {
  const auto [n, a, seed] = GetParam();
  const Graph g = gen::forest_union(n, a, seed);
  const PartitionParams params{.arboricity = a};

  const auto coloring = compute_delta_plus1(g, params);
  EXPECT_TRUE(is_proper_coloring(g, coloring.color));
  EXPECT_LE(coloring.num_colors, g.max_degree() + 1);

  const auto mis = compute_mis(g, params);
  EXPECT_TRUE(is_mis(g, mis.in_set));

  const auto ec = compute_edge_coloring(g, params);
  EXPECT_TRUE(is_proper_edge_coloring(g, ec.color));
  EXPECT_LE(ec.num_colors, 2 * g.max_degree() - 1);

  const auto mm = compute_matching(g, params);
  EXPECT_TRUE(is_maximal_matching(g, mm.in_matching));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtensionSweep,
    ::testing::Combine(::testing::Values(64, 256, 1024),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace valocal
