#include "graph/arboricity.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace valocal {
namespace {

TEST(Degeneracy, Basics) {
  EXPECT_EQ(degeneracy(gen::path(10)), 1u);
  EXPECT_EQ(degeneracy(gen::ring(10)), 2u);
  EXPECT_EQ(degeneracy(gen::star(50)), 1u);
  EXPECT_EQ(degeneracy(gen::complete(7)), 6u);
  EXPECT_EQ(degeneracy(gen::dary_tree(31, 2)), 1u);
  EXPECT_EQ(degeneracy(gen::grid(8, 8)), 2u);
}

TEST(Degeneracy, EmptyAndTrivial) {
  EXPECT_EQ(degeneracy(Graph(0, {})), 0u);
  EXPECT_EQ(degeneracy(Graph(3, {})), 0u);
  EXPECT_EQ(degeneracy(Graph(2, {{0, 1}})), 1u);
}

/// The full peel's value: the most later neighbors any vertex has along
/// degeneracy_order, which peels the whole graph.
std::size_t full_peel_degeneracy(const Graph& g) {
  const auto order = degeneracy_order(g);
  std::vector<std::size_t> pos(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::size_t worst = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::size_t later = 0;
    for (Vertex u : g.neighbors(v))
      if (pos[u] > pos[v]) ++later;
    worst = std::max(worst, later);
  }
  return worst;
}

/// Disjoint union of the graphs, relabelled consecutively.
Graph disjoint_union(const std::vector<Graph>& parts) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  Vertex base = 0;
  for (const Graph& p : parts) {
    p.for_each_edge([&](Vertex u, Vertex v) {
      edges.emplace_back(base + u, base + v);
    });
    base += static_cast<Vertex>(p.num_vertices());
  }
  return Graph(base, std::move(edges));
}

/// K_k beside `hubs` stars of `leaves` leaves each: the hubs set hi,
/// H_hi is edgeless, and the clique holds the top core.
Graph clique_beside_stars(std::size_t k, std::size_t hubs,
                          std::size_t leaves) {
  std::vector<Graph> parts{gen::complete(k)};
  for (std::size_t i = 0; i < hubs; ++i) parts.push_back(gen::star(leaves + 1));
  return disjoint_union(parts);
}

Graph rmat(std::uint32_t scale, std::size_t edge_factor,
           std::uint64_t seed) {
  return gen::rmat(
      {.scale = scale, .edge_factor = edge_factor, .seed = seed});
}

/// Checks degeneracy(g) against the full peel; `what` and `param` name
/// the graph in a failure.
void expect_exact(const Graph& g, const char* what, std::size_t param = 0) {
  EXPECT_EQ(degeneracy(g), full_peel_degeneracy(g)) << what << " " << param;
}

TEST(Degeneracy, EqualsTheFullPeelOnEveryGeneratorFamily) {
  expect_exact(gen::ring(101), "ring");
  expect_exact(gen::path(64), "path");
  expect_exact(gen::star(200), "star");
  expect_exact(gen::dary_tree(1000, 10), "dary_tree");
  expect_exact(gen::random_tree(500, 3), "random_tree");
  expect_exact(gen::grid(20, 30), "grid");
  expect_exact(gen::torus(16, 16), "torus");
  expect_exact(gen::hypercube(9), "hypercube");
  expect_exact(gen::caterpillar(40, 25), "caterpillar");
  expect_exact(gen::random_bipartite(300, 200, 4000, 5), "bipartite");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_exact(gen::forest_union(2000, 1 + seed, seed), "forest", seed);
    expect_exact(gen::erdos_renyi(2000, 2.0 * seed, seed), "er", seed);
    expect_exact(gen::barabasi_albert(2000, seed, seed), "ba", seed);
    expect_exact(gen::random_regular(1000, 2 * seed, seed), "regular", seed);
  }
}

TEST(Degeneracy, EqualsTheFullPeelOnRmatStarsAndCliques) {
  for (std::uint32_t scale = 10; scale <= 14; ++scale)
    for (std::size_t ef : {1u, 4u, 16u, 32u})
      expect_exact(rmat(scale, ef, scale * 7 + ef), "rmat scale*100+ef",
                   scale * 100 + ef);
  for (std::size_t k : {1u, 2u, 7u, 40u, 300u})
    expect_exact(gen::star_union(3000, k), "star_union k", k);
  for (std::size_t k : {1u, 2u, 3u, 10u, 33u})
    expect_exact(gen::complete(k), "K", k);
  expect_exact(disjoint_union({gen::complete(30), gen::star_union(4000, 6)}),
               "K30 + star_union");
}

TEST(Degeneracy, EachSearchPathReturnsTheFullPeelsValue) {
  using detail::degeneracy_search;
  using detail::DegeneracyPath;
  using detail::DegeneracySearch;
  // The hubs' core is the answer: K_20 is H_hi and 19 = hi.
  const Graph hub_core = disjoint_union({gen::complete(20), gen::path(1000)});
  // H_hi is 30 edgeless hubs (L = 0 < hi = 29); the clique is found in
  // H_lo, lo = ceil(m / n) = 2.
  const Graph restricted = clique_beside_stars(10, 30, 40);
  // Near-regular: S_lo holds almost every vertex.
  const Graph full = gen::erdos_renyi(4096, 16.0, 3);

  const DegeneracySearch a = degeneracy_search(hub_core);
  EXPECT_EQ(a.path, DegeneracyPath::kHubCore);
  EXPECT_EQ(a.value, 19u);
  const DegeneracySearch b = degeneracy_search(restricted);
  EXPECT_EQ(b.path, DegeneracyPath::kRestricted);
  EXPECT_EQ(b.value, 9u);
  const DegeneracySearch c = degeneracy_search(full);
  EXPECT_EQ(c.path, DegeneracyPath::kFullPeel);
  for (const Graph* g : {&hub_core, &restricted, &full})
    EXPECT_EQ(degeneracy_search(*g).value, full_peel_degeneracy(*g));

  // RMAT is the hub-heavy shape the restricted peel is for.
  const Graph r = rmat(14, 16, 1);
  EXPECT_NE(degeneracy_search(r).path, DegeneracyPath::kFullPeel);
  EXPECT_EQ(degeneracy(r), full_peel_degeneracy(r));
}

TEST(DegeneracyOrder, EachVertexHasBoundedLaterNeighbors) {
  const Graph g = gen::forest_union(300, 3, 11);
  const std::size_t d = degeneracy(g);
  const auto order = degeneracy_order(g);
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<std::size_t> pos(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::size_t later = 0;
    for (Vertex u : g.neighbors(v))
      if (pos[u] > pos[v]) ++later;
    EXPECT_LE(later, d);
  }
}

TEST(NashWilliams, LowerBound) {
  EXPECT_EQ(nash_williams_lb(gen::complete(6)), 3u);  // 15/(5) = 3
  EXPECT_EQ(nash_williams_lb(gen::path(10)), 1u);
  EXPECT_EQ(nash_williams_lb(Graph(5, {})), 0u);
}

TEST(Arboricity, SandwichOnKnownFamilies) {
  // degeneracy/2 <= a <= degeneracy; nash_williams_lb <= a.
  for (std::size_t a : {2u, 4u, 6u}) {
    const Graph g = gen::forest_union(400, a, 3);
    EXPECT_LE(nash_williams_lb(g), a);
    EXPECT_LE(arboricity_upper_bound(g), 2 * a - 1);
    EXPECT_GE(arboricity_upper_bound(g), a / 2);
  }
}

TEST(Arboricity, UpperBoundAtLeastOne) {
  EXPECT_EQ(arboricity_upper_bound(Graph(4, {})), 1u);
}

}  // namespace
}  // namespace valocal
