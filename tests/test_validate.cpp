#include "validate/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "validate/reference.hpp"

namespace valocal {
namespace {

TEST(Validate, ProperColoring) {
  const Graph g = gen::ring(6);
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 0, 1, 0, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 1, 0, 0}));  // 5-0 clash
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 1, 0, -1}));  // negative
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0}));  // wrong size
}

TEST(Validate, CountColors) {
  EXPECT_EQ(count_colors({0, 1, 0, 2, 1}), 3u);
  EXPECT_EQ(count_colors({}), 0u);
}

TEST(Validate, EdgeColoring) {
  const Graph g = gen::path(4);  // edges 0-1, 1-2, 2-3
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1, 0}));
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 0, 1}));  // share vertex 1
}

TEST(Validate, Mis) {
  const Graph g = gen::path(5);
  EXPECT_TRUE(is_mis(g, {true, false, true, false, true}));
  EXPECT_FALSE(is_mis(g, {true, true, false, false, true}));  // adjacent
  EXPECT_FALSE(is_mis(g, {true, false, false, false, true}));  // 2 undominated
}

TEST(Validate, MaximalMatching) {
  const Graph g = gen::path(4);  // edges e0=0-1, e1=1-2, e2=2-3
  EXPECT_TRUE(is_maximal_matching(g, {true, false, true}));
  EXPECT_FALSE(is_maximal_matching(g, {true, true, false}));  // intersect
  EXPECT_FALSE(is_maximal_matching(g, {false, false, true}));  // e0 addable
  EXPECT_TRUE(is_maximal_matching(g, {false, true, false}));
}

TEST(Validate, HPartition) {
  const Graph g = gen::star(5);  // center 0
  // Leaves in H1, center in H2: center has 0 same-or-later neighbors,
  // each leaf has 1.
  EXPECT_TRUE(is_h_partition(g, {2, 1, 1, 1, 1}, 1));
  // Center in H1 with bound 1: center has 4 later neighbors — invalid.
  EXPECT_FALSE(is_h_partition(g, {1, 2, 2, 2, 2}, 1));
  EXPECT_TRUE(is_h_partition(g, {1, 2, 2, 2, 2}, 4));
  EXPECT_FALSE(is_h_partition(g, {0, 1, 1, 1, 1}, 4));  // labels start at 1
}

TEST(Validate, Defect) {
  const Graph g = gen::ring(6);
  EXPECT_EQ(coloring_defect(g, {0, 1, 0, 1, 0, 1}), 0u);
  EXPECT_EQ(coloring_defect(g, {0, 0, 0, 0, 0, 0}), 2u);
  EXPECT_EQ(coloring_defect(g, {0, 0, 1, 1, 2, 2}), 1u);
}

TEST(Validate, ArbdefectUpperBound) {
  const Graph g = gen::complete(6);
  // Single class: whole K6, degeneracy 5.
  EXPECT_EQ(coloring_arbdefect_ub(g, {0, 0, 0, 0, 0, 0}), 5u);
  // Proper coloring: every class an independent set, arbdefect 0.
  EXPECT_EQ(coloring_arbdefect_ub(g, {0, 1, 2, 3, 4, 5}), 0u);
}

TEST(Validate, ArbdefectIsTheLargestClassDegeneracy) {
  // Reference: one induced subgraph per color class, peeled on its own.
  const auto per_class_max = [](const Graph& g,
                                const std::vector<int>& color) {
    std::map<int, std::vector<Vertex>> classes;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      classes[color[v]].push_back(v);
    std::size_t worst = 0;
    for (const auto& [c, members] : classes)
      worst = std::max(worst, degeneracy(Graph::induced(g, members)));
    return worst;
  };
  std::mt19937_64 rng(17);
  const std::vector<std::pair<const char*, Graph>> graphs = [] {
    std::vector<std::pair<const char*, Graph>> out;
    out.emplace_back("erdos_renyi", gen::erdos_renyi(400, 12.0, 3));
    out.emplace_back("forest_union", gen::forest_union(300, 4, 5));
    out.emplace_back("barabasi_albert", gen::barabasi_albert(300, 5, 7));
    out.emplace_back("complete", gen::complete(24));
    out.emplace_back("rmat",
                     gen::rmat({.scale = 9, .edge_factor = 8, .seed = 11}));
    return out;
  }();
  for (const auto& [name, g] : graphs)
    for (const int colors : {1, 2, 3, 7, 40}) {
      SCOPED_TRACE(testing::Message() << name << ", " << colors
                                      << " colors");
      std::vector<int> color(g.num_vertices());
      for (int& c : color) c = static_cast<int>(rng() % colors);
      EXPECT_EQ(coloring_arbdefect_ub(g, color), per_class_max(g, color));
    }
}

TEST(Reference, GreedyColoringIsProper) {
  const Graph g = gen::erdos_renyi(300, 8.0, 4);
  std::vector<Vertex> order(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) order[v] = v;
  const auto color = ref::greedy_coloring(g, order);
  EXPECT_TRUE(is_proper_coloring(g, color));
  EXPECT_LE(count_colors(color), g.max_degree() + 1);
}

TEST(Reference, DegeneracyColoringUsesFewColors) {
  const Graph g = gen::forest_union(500, 3, 8);
  const auto color = ref::degeneracy_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, color));
  EXPECT_LE(count_colors(color), 2u * 3 - 1 + 1);  // degeneracy+1
}

TEST(Reference, GreedyMisMatchingEdgeColoring) {
  for (std::uint64_t seed : {1ULL, 5ULL}) {
    const Graph g = gen::erdos_renyi(200, 5.0, seed);
    EXPECT_TRUE(is_mis(g, ref::greedy_mis(g)));
    EXPECT_TRUE(is_maximal_matching(g, ref::greedy_matching(g)));
    const auto ec = ref::greedy_edge_coloring(g);
    EXPECT_TRUE(is_proper_edge_coloring(g, ec));
    EXPECT_LE(count_colors(ec), 2 * g.max_degree() - 1);
  }
}

}  // namespace
}  // namespace valocal
