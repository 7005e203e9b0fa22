#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "stream_contract.hpp"

namespace valocal {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SingleEdge) {
  Graph g(2, {{0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_u(0), 0u);
  EXPECT_EQ(g.edge_v(0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 1), 0u);
}

TEST(Graph, EndpointsNormalized) {
  Graph g(3, {{2, 0}, {2, 1}});
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_LT(g.edge_u(e), g.edge_v(e));
}

TEST(Graph, NeighborsSortedAndAligned) {
  Graph g(5, {{0, 3}, {0, 1}, {0, 4}, {0, 2}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto inc = g.incident_edges(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    EXPECT_EQ(g.other_endpoint(inc[i], 0), nbrs[i]);
}

TEST(Graph, FindEdge) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.find_edge(1, 2), g.find_edge(2, 1));
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
}

TEST(Graph, MaxDegree) {
  Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(GraphBuilder, DeduplicatesEdges) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // same edge, reversed
  EXPECT_FALSE(b.add_edge(0, 0));  // self-loop rejected
  EXPECT_TRUE(b.add_edge(1, 2));
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));

  // A random add sequence through several rehash growths, with repeats
  // in both orientations and self-loops, against std::set; accepted
  // edges keep their insertion order as ids.
  constexpr Vertex kN = 300;
  GraphBuilder big(kN);
  std::set<std::pair<Vertex, Vertex>> reference;
  std::vector<std::pair<Vertex, Vertex>> accepted;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto u = static_cast<Vertex>(rng() % kN);
    const auto v = static_cast<Vertex>(rng() % kN);
    const std::pair<Vertex, Vertex> key = std::minmax(u, v);
    const bool present = reference.contains(key);
    ASSERT_EQ(big.add_edge(u, v), u != v && !present) << u << ' ' << v;
    if (u != v && !present) {
      reference.insert(key);
      accepted.push_back(key);
    }
    ASSERT_FALSE(big.add_edge(v, u)) << u << ' ' << v;
  }
  ASSERT_GT(accepted.size(), 10000u);
  ASSERT_LT(accepted.size(), 20000u);
  ASSERT_EQ(big.num_edges(), accepted.size());
  const Graph built = std::move(big).build();
  ASSERT_EQ(built.num_edges(), accepted.size());
  for (EdgeId e = 0; e < built.num_edges(); ++e) {
    ASSERT_EQ(built.edge_u(e), accepted[e].first) << "edge " << e;
    ASSERT_EQ(built.edge_v(e), accepted[e].second) << "edge " << e;
  }
}

TEST(Graph, DegreeSumIsTwiceEdges) {
  Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
  std::size_t sum = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) sum += g.degree(v);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

TEST(Graph, RejectsVertexCountsBeyond32BitIds) {
  // Regression: generators take std::size_t n but Vertex is uint32, so
  // n > 2^32 - 1 used to truncate silently inside the CSR arrays.
  // Every construction path must refuse up front (the guard fires
  // before any allocation, so the death is cheap).
  const std::size_t too_many = kMaxVertices + 1;
  EXPECT_DEATH((void)GraphBuilder(too_many), "32-bit id limit");
  EXPECT_DEATH((void)Graph(too_many, {}), "32-bit id limit");
  const std::vector<Vertex> no_pairs;
  const SpanEdgeSource empty{std::span<const Vertex>(no_pairs)};
  EXPECT_DEATH((void)Graph::from_source(too_many, empty),
               "32-bit id limit");
}

// --- Streaming CSR build (Graph::from_source) ---

// Interleaved (u, v) pairs of g's edges, the generator-exchange shape.
std::vector<Vertex> interleaved_pairs(const Graph& g) {
  std::vector<Vertex> pairs;
  pairs.reserve(2 * g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    pairs.push_back(g.edge_u(e));
    pairs.push_back(g.edge_v(e));
  }
  return pairs;
}

// g's edges as a raw generator stream: shuffled, each edge in a random
// orientation, about a third of them repeated (in either orientation),
// plus a self-loop on every tenth vertex.
std::vector<Vertex> noisy_pairs(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<Vertex, Vertex>> raw;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Vertex u = g.edge_u(e), v = g.edge_v(e);
    for (int copy = rng() % 3 == 0 ? 2 : 1; copy > 0; --copy)
      raw.push_back(rng() % 2 == 0 ? std::pair{u, v} : std::pair{v, u});
  }
  for (Vertex v = 0; v < g.num_vertices(); v += 10) raw.emplace_back(v, v);
  std::shuffle(raw.begin(), raw.end(), rng);
  std::vector<Vertex> pairs;
  for (const auto& [u, v] : raw) pairs.insert(pairs.end(), {u, v});
  return pairs;
}

// Two hubs that take the build's 11-bit radix tier: vertex 0 is adjacent
// to all 4999 others (ids past 2^11, so two radix digits), vertex 1 to
// every id below 1200 (one digit); a ring over the rest adds
// low-degree slices for the std::sort path.
Graph hub_graph() {
  constexpr Vertex kN = 5000;
  GraphBuilder b(kN);
  for (Vertex v = 1; v < kN; ++v) b.add_edge(0, v);
  for (Vertex v = 2; v < 1200; ++v) b.add_edge(1, v);
  for (Vertex v = 2; v < kN; ++v) b.add_edge(v, v + 1 < kN ? v + 1 : 2);
  return std::move(b).build();
}

// The reciprocal-port invariant every algorithm relies on: the mirror
// of position i at v points back at v, at the position that mirrors i,
// over the same edge id.
void expect_ports_consistent(const Graph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex w = nbrs[i];
      const std::size_t j = g.neighbor_port(v, i);
      ASSERT_LT(j, g.degree(w));
      ASSERT_EQ(g.neighbors(w)[j], v);
      ASSERT_EQ(g.neighbor_port(w, j), i);
      ASSERT_EQ(g.incident_edges(w)[j], inc[i]);
    }
  }
}

// g rebuilt through the eager vector constructor with its edges in
// lexicographic order, so its edge index is the canonical one,
// computed by the eager sweep.
Graph eager_canonical(const Graph& g) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (const Vertex v : g.forward_neighbors(u)) edges.emplace_back(u, v);
  return Graph(g.num_vertices(), std::move(edges));
}

// Same edge ids, incident lists and ports.
void expect_same_edge_index(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e)) << "edge " << e;
    ASSERT_EQ(a.edge_v(e), b.edge_v(e)) << "edge " << e;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident_edges(v), ib = b.incident_edges(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "incident edges of " << v;
    for (std::size_t i = 0; i < a.degree(v); ++i)
      ASSERT_EQ(a.neighbor_port(v, i), b.neighbor_port(v, i))
          << "port " << i << " of " << v;
  }
}

// Same adjacency structure (ids may differ: from_source assigns
// canonical lexicographic edge ids, the staged path input order).
void expect_same_structure(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbors of " << v;
  }
}

// One small graph of every generator family, plus the radix-tier hub.
std::vector<std::pair<const char*, Graph>> generator_families() {
  std::vector<std::pair<const char*, Graph>> out;
  out.emplace_back("ring", gen::ring(64));
  out.emplace_back("path", gen::path(50));
  out.emplace_back("star", gen::star(40));
  out.emplace_back("complete", gen::complete(20));
  out.emplace_back("dary_tree", gen::dary_tree(60, 3));
  out.emplace_back("random_tree", gen::random_tree(80, 7));
  out.emplace_back("grid", gen::grid(8, 9));
  out.emplace_back("torus", gen::torus(5, 6));
  out.emplace_back("hypercube", gen::hypercube(5));
  out.emplace_back("forest_union", gen::forest_union(120, 3, 11));
  out.emplace_back("erdos_renyi", gen::erdos_renyi(150, 6.0, 13));
  out.emplace_back("barabasi_albert", gen::barabasi_albert(90, 3, 17));
  out.emplace_back("caterpillar", gen::caterpillar(12, 4));
  out.emplace_back("star_union", gen::star_union(100, 5));
  out.emplace_back("random_regular", gen::random_regular(64, 4, 19));
  out.emplace_back("random_bipartite",
                   gen::random_bipartite(30, 40, 150, 23));
  out.emplace_back("hub", hub_graph());
  return out;
}

TEST(GraphFromSource, MatchesStagedBuildOnEveryGeneratorFamily) {
  const auto families = generator_families();
  ASSERT_GE(families.back().second.max_degree(), 1000u);
  for (const auto& [name, g] : families) {
    SCOPED_TRACE(name);
    for (const auto& pairs : {interleaved_pairs(g), noisy_pairs(g, 29)}) {
      const SpanEdgeSource src(pairs);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const Graph streamed =
            Graph::from_source(g.num_vertices(), src, threads);
        expect_same_structure(streamed, g);
        ASSERT_FALSE(streamed.edge_index_built());
        expect_same_edge_index(streamed, eager_canonical(g));
        ASSERT_TRUE(streamed.edge_index_built());
        expect_ports_consistent(streamed);
      }
    }
  }
}

// FNV-1a over a graph's edge index, read through the per-call
// accessors; `incident_first` picks which table the first query hits.
std::uint64_t edge_index_fingerprint(const Graph& g, bool incident_first) {
  const auto mix = [](std::uint64_t& h, std::uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  std::uint64_t by_vertex = 0xcbf29ce484222325ULL, by_edge = by_vertex;
  const auto vertices = [&] {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (const EdgeId e : g.incident_edges(v)) mix(by_vertex, e);
      for (std::size_t i = 0; i < g.degree(v); ++i)
        mix(by_vertex, g.neighbor_port(v, i));
    }
  };
  const auto edges = [&] {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      mix(by_edge, g.edge_u(e));
      mix(by_edge, g.edge_v(e));
    }
  };
  if (incident_first) {
    vertices();
    edges();
  } else {
    edges();
    vertices();
  }
  return by_vertex ^ (by_edge * 31);
}

TEST(GraphFromSource, EdgeIndexIsBuiltOnFirstUseAndSharedByCopies) {
  const Graph g = gen::rmat({.scale = 8, .edge_factor = 4, .seed = 3});
  EXPECT_FALSE(g.edge_index_built());
  // Counts, adjacency and has_edge need no edge ids.
  ASSERT_GT(g.num_edges(), 0u);
  Vertex u = 0;
  while (g.degree(u) == 0) ++u;
  EXPECT_TRUE(g.has_edge(u, g.neighbors(u)[0]));
  EXPECT_TRUE(g.has_edge(g.neighbors(u)[0], u));
  const auto edge_set = [](const Graph& h) {
    std::set<std::pair<Vertex, Vertex>> out;
    h.for_each_edge([&](Vertex a, Vertex b) {
      EXPECT_LT(a, b);
      EXPECT_TRUE(out.emplace(a, b).second) << a << ' ' << b;
    });
    return out;
  };
  const auto walked = edge_set(g);  // the forward-neighbor walk
  EXPECT_EQ(walked.size(), g.num_edges());
  EXPECT_FALSE(g.edge_index_built());
  const Graph copy = g;
  EXPECT_FALSE(copy.edge_index_built());
  expect_same_edge_index(copy, eager_canonical(g));
  // The copy's first query built the tables both copies share.
  EXPECT_TRUE(copy.edge_index_built());
  EXPECT_TRUE(g.edge_index_built());
  EXPECT_EQ(edge_set(g), walked);  // the edge-id loop
  EXPECT_TRUE(Graph(3, {{0, 1}}).edge_index_built());
  EXPECT_FALSE(Graph().edge_index_built());
  EXPECT_FALSE(Graph().edge_index());
}

TEST(GraphFromSource, ConcurrentFirstEdgeQueriesSeeOneIndex) {
  // Four threads race the first incident_edges / edge_u on a fresh
  // streamed graph; two more wait until edge_index_built() and then
  // read through the fast path only, which checks the publication.
  // Every one must read the tables a serial build gives. Run under
  // TSan in CI.
  const gen::RmatParams params{.scale = 11, .edge_factor = 8, .seed = 9};
  const std::uint64_t want =
      edge_index_fingerprint(eager_canonical(gen::rmat(params)), true);
  constexpr int kRacers = 4, kLate = 2;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Graph g = gen::rmat(params);
    ASSERT_FALSE(g.edge_index_built());
    std::atomic<int> waiting{kRacers};
    std::array<std::uint64_t, kRacers + kLate> seen{};
    std::vector<std::thread> threads;
    for (int t = 0; t < kRacers + kLate; ++t)
      threads.emplace_back([&, t] {
        if (t < kRacers) {
          waiting.fetch_sub(1);
          while (waiting.load() > 0) std::this_thread::yield();
        } else {
          while (!g.edge_index_built()) std::this_thread::yield();
        }
        seen[t] = edge_index_fingerprint(g, t % 2 == 0);
      });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kRacers + kLate; ++t)
      EXPECT_EQ(seen[t], want) << "thread " << t;
  }
}

TEST(GraphFromSource, DropsSelfLoopsAndDuplicates) {
  // Generator-exchange semantics (unlike the rejecting vector ctor):
  // raw streams carry self-loops and repeats in both orientations.
  const std::vector<Vertex> pairs = {0, 1, 1, 0, 2, 2, 1, 2, 1, 2, 3, 3};
  const Graph g =
      Graph::from_source(4, SpanEdgeSource(pairs));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
  expect_ports_consistent(g);
}

TEST(GraphFromSource, CanonicalEdgeIdsRegardlessOfPairOrder) {
  const std::vector<Vertex> forward = {0, 1, 0, 2, 1, 2};
  const std::vector<Vertex> shuffled = {2, 1, 2, 0, 1, 0};
  const Graph a = Graph::from_source(3, SpanEdgeSource(forward));
  const Graph b = Graph::from_source(3, SpanEdgeSource(shuffled));
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
  }
  // Lexicographic by (u, v): ids are sorted.
  for (EdgeId e = 1; e < a.num_edges(); ++e) {
    const bool ordered =
        a.edge_u(e - 1) < a.edge_u(e) ||
        (a.edge_u(e - 1) == a.edge_u(e) && a.edge_v(e - 1) < a.edge_v(e));
    EXPECT_TRUE(ordered) << "edge " << e;
  }
}

TEST(GraphFromSource, OutOfRangeEndpointDies) {
  const std::vector<Vertex> pairs = {0, 1, 5, 1};
  EXPECT_DEATH((void)Graph::from_source(3, SpanEdgeSource(pairs)),
               "out of range");
}

// A source whose second stream() yields `second` where its first
// yielded `first` (both one block) — what an mmap'd file rewritten
// between the build's two passes looks like.
class ChangingSource final : public EdgeBlockSource {
 public:
  ChangingSource(std::vector<Vertex> first, std::vector<Vertex> second)
      : first_(std::move(first)), second_(std::move(second)) {}
  std::uint64_t num_pairs() const override { return first_.size() / 2; }
  void stream(std::size_t, const BlockFn& fn) const override {
    const std::vector<Vertex>& pairs = calls_++ > 0 ? second_ : first_;
    fn(Block(pairs.data(), pairs.size()));
  }

 private:
  std::vector<Vertex> first_, second_;
  mutable int calls_ = 0;
};

TEST(GraphFromSource, SourceChangingBetweenPassesDies) {
  // An extra endpoint for the last vertex (2) would land past the end
  // of the adjacency array; one missing leaves a slice slot unwritten.
  const std::vector<Vertex> triangle = {0, 1, 1, 2, 0, 2};
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource(triangle, {0, 1, 1, 2, 0, 2, 2, 0})),
               "edge source changed between passes");
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource(triangle, {0, 1, 1, 2})),
               "edge source changed between passes");
  const Graph g = Graph::from_source(3, ChangingSource(triangle, triangle));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphFromSource, OutOfRangeIdsInsideThePrefetchWindowDie) {
  // Both streaming passes prefetch through ids of pairs up to 32 pairs
  // ahead, before those pairs are range-checked. With n = 1 every id
  // but 0 is out of range (and every valid pair a self-loop, so the
  // adjacency array is empty); a bad id placed within that window of a
  // block start must still die with the range check's message. Run
  // under ASan in CI, which flags the scatter's cursor read if an id
  // ahead is used unclamped.
  const std::size_t block = EdgeBlockSource::kBlockPairs;
  for (const std::size_t at : {std::size_t{3}, std::size_t{20},
                               block + 20, block + 31}) {
    SCOPED_TRACE(at);
    std::vector<Vertex> pairs(2 * (block + 64), 0);
    pairs[2 * at + at % 2] = 7;
    EXPECT_DEATH((void)Graph::from_source(1, SpanEdgeSource(pairs)),
                 "edge endpoint out of range");
    // The degree pass saw only self-loops; the scatter's lookahead
    // meets the bad id first.
    const std::vector<Vertex> clean(pairs.size(), 0);
    EXPECT_DEATH((void)Graph::from_source(1, ChangingSource(clean, pairs)),
                 "edge source changed between passes");
  }
}

TEST(GraphFromSource, SortTiersAgreeAtTheirBoundaries) {
  // Slices sort by raw length (duplicates counted, self-loops dropped):
  // std::sort below 32, 8-bit radix digits from 32, 11-bit from 1024.
  // Each hub's raw slice sits at a tier boundary, with and without
  // duplicate pairs. "Spread" hubs draw neighbor ids from every range
  // [32, 2^11), [2^11, 2^16), [2^16, 2^24) and [2^24, n), so every
  // digit of both widths sorts; "narrow" hubs draw them from one window
  // above 2^24, where the upper digits all agree and are skipped.
  constexpr Vertex kWindow = 4096;
  constexpr Vertex kN = (Vertex{1} << 24) + kWindow;
  constexpr std::array<std::pair<Vertex, Vertex>, 4> kRanges = {
      {{32, 1u << 11}, {1u << 11, 1u << 16}, {1u << 16, 1u << 24},
       {1u << 24, kN}}};
  std::mt19937_64 rng(41);
  std::vector<std::pair<Vertex, Vertex>> raw;
  const auto orient = [&](Vertex u, Vertex v) {
    raw.push_back(rng() % 2 == 0 ? std::pair{u, v} : std::pair{v, u});
  };
  Vertex hub = 0;
  std::vector<std::pair<Vertex, std::size_t>> hubs;
  for (const std::size_t len : {31, 32, 33, 1023, 1024, 1025})
    for (const bool narrow : {false, true})
      for (const bool duplicates : {false, true}) {
        const std::size_t repeats = duplicates ? len / 4 : 0;
        std::set<Vertex> picked;
        std::vector<Vertex> nbrs;
        while (nbrs.size() < len - repeats) {
          const auto [lo, hi] =
              narrow ? kRanges.back() : kRanges[nbrs.size() % 4];
          const auto w = static_cast<Vertex>(lo + rng() % (hi - lo));
          if (picked.insert(w).second) nbrs.push_back(w);
        }
        for (const Vertex w : nbrs) orient(hub, w);
        for (std::size_t i = 0; i < repeats; ++i)
          orient(hub, nbrs[rng() % nbrs.size()]);
        for (int i = 0; i < 3; ++i) raw.emplace_back(hub, hub);
        hubs.emplace_back(hub++, len);
      }
  ASSERT_LT(hub, 32u);  // hubs sit below every neighbor id

  GraphBuilder builder(kN);
  for (const auto& [u, v] : raw) builder.add_edge(u, v);
  const Graph want = std::move(builder).build();
  for (const auto& [h, len] : hubs) {
    const auto endpoints = std::count_if(
        raw.begin(), raw.end(), [h = h](const auto& p) {
          return p.first != p.second && (p.first == h || p.second == h);
        });
    ASSERT_EQ(static_cast<std::size_t>(endpoints), len) << "hub " << h;
  }
  for (const std::uint64_t seed : {1, 2}) {
    std::shuffle(raw.begin(), raw.end(), std::mt19937_64(seed));
    std::vector<Vertex> pairs;
    for (const auto& [u, v] : raw) pairs.insert(pairs.end(), {u, v});
    const SpanEdgeSource src(pairs);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", threads "
                                      << threads);
      const Graph got = Graph::from_source(kN, src, threads);
      EXPECT_EQ(got.max_degree(), want.max_degree());
      expect_same_structure(got, want);
    }
  }
}

TEST(GraphFromSource, SpanSourceHandsBlocksOverSerially) {
  const std::vector<Vertex> pairs(2 * 5 * EdgeBlockSource::kBlockPairs + 6,
                                  0);
  expect_serial_stream(SpanEdgeSource(pairs), 4);
}

TEST(GraphFromSource, EmptySource) {
  const std::vector<Vertex> no_pairs;
  const Graph g =
      Graph::from_source(5, SpanEdgeSource(std::span<const Vertex>(no_pairs)));
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  const Graph empty = Graph::from_source(0, SpanEdgeSource({}));
  EXPECT_EQ(empty.num_vertices(), 0u);
}

// --- Induced subgraphs (Graph::induced) ---

// G[S] the staged way: members' forward edges in member order through
// GraphBuilder, the reference Graph::induced must match byte for byte.
Graph builder_induced(const Graph& g, const std::vector<Vertex>& members) {
  std::vector<Vertex> local(g.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < members.size(); ++i)
    local[members[i]] = static_cast<Vertex>(i);
  GraphBuilder b(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    for (const Vertex u : g.forward_neighbors(members[i]))
      if (local[u] != kInvalidVertex)
        b.add_edge(static_cast<Vertex>(i), local[u]);
  return std::move(b).build();
}

TEST(GraphInduced, MatchesBuilderOnEveryGeneratorFamilyAndRmat) {
  auto graphs = generator_families();
  graphs.emplace_back("rmat",
                      gen::rmat({.scale = 10, .edge_factor = 8, .seed = 5}));
  std::mt19937_64 rng(41);
  for (const auto& [name, g] : graphs) {
    // Empty, full, then random member sets of growing density.
    for (const double keep : {0.0, 1.0, 0.05, 0.3, 0.6, 0.9}) {
      SCOPED_TRACE(testing::Message() << name << ", keep " << keep);
      std::bernoulli_distribution coin(keep);
      std::vector<Vertex> members;
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        if (coin(rng)) members.push_back(v);
      const Graph got = Graph::induced(g, members);
      const Graph want = builder_induced(g, members);
      EXPECT_EQ(got.max_degree(), want.max_degree());
      expect_same_structure(got, want);
      ASSERT_FALSE(got.edge_index_built());
      expect_same_edge_index(got, want);
      expect_ports_consistent(got);
    }
  }
}

TEST(GraphInduced, MembersMustBeStrictlyIncreasingAndInRange) {
  const Graph g = gen::ring(8);
  const std::vector<Vertex> unsorted{1, 4, 3}, duplicated{2, 5, 5},
      out_of_range{0, 7, 8};
  EXPECT_DEATH((void)Graph::induced(g, unsorted), "strictly increasing");
  EXPECT_DEATH((void)Graph::induced(g, duplicated), "strictly increasing");
  EXPECT_DEATH((void)Graph::induced(g, out_of_range), "out of range");
}

}  // namespace
}  // namespace valocal
