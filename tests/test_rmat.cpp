// RMAT generator: determinism across thread counts and block
// schedules, id-range safety, spec parsing, and equivalence of the
// streaming CSR build against the staged GraphBuilder path on the
// generator's own (self-loop- and duplicate-bearing) pair stream.
#include "graph/rmat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/stats.hpp"
#include "stream_contract.hpp"

namespace valocal {
namespace {

using gen::RmatParams;
using gen::RmatSource;

// Structural equality down to edge ids and reciprocal ports — the
// "byte-identical" claim the generator's determinism rests on.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e)) << "edge " << e;
    ASSERT_EQ(a.edge_v(e), b.edge_v(e)) << "edge " << e;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbors of " << v;
    const auto ia = a.incident_edges(v), ib = b.incident_edges(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "incident edges of " << v;
    for (std::size_t i = 0; i < na.size(); ++i)
      ASSERT_EQ(a.neighbor_port(v, i), b.neighbor_port(v, i))
          << "port " << i << " of " << v;
  }
}

RmatParams small_params() {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 42;
  return p;
}

TEST(Rmat, PairStreamIsDeterministicAcrossThreadCounts) {
  const RmatParams p = small_params();
  const RmatSource src(p);
  auto collect = [&](std::size_t threads) {
    std::vector<std::uint64_t> pairs;
    src.stream(threads, [&](EdgeBlockSource::Block block) {
      for (std::size_t i = 0; i + 1 < block.size(); i += 2)
        pairs.push_back((std::uint64_t{block[i]} << 32) | block[i + 1]);
    });
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto serial = collect(1);
  EXPECT_EQ(serial.size(), p.num_directed_edges());
  EXPECT_EQ(serial, collect(4));
  EXPECT_EQ(serial, collect(3));
}

TEST(Rmat, StreamHandsBlocksOverSeriallyAndInOrder) {
  // Blocks are produced on several threads but must reach fn one at a
  // time, in block order: the same sequence as the serial stream.
  RmatParams p = small_params();
  p.scale = 14;
  p.edge_factor = 80;  // 20 blocks: two batches of up to 16 at 4 threads
  const RmatSource src(p);
  expect_serial_stream(src, 4);
  auto sequence = [&](std::size_t threads) {
    std::vector<Vertex> out;
    src.stream(threads, [&](EdgeBlockSource::Block block) {
      out.insert(out.end(), block.begin(), block.end());
    });
    return out;
  };
  EXPECT_EQ(sequence(1), sequence(4));
}

TEST(Rmat, BuiltGraphIdenticalAcrossThreadCounts) {
  const RmatParams p = small_params();
  const Graph g1 = gen::rmat(p, 1);
  const Graph g4 = gen::rmat(p, 4);
  expect_identical(g1, g4);
  EXPECT_GT(g1.num_edges(), 0u);
  // Simple graph: strictly fewer edges than raw pairs (dupes dropped).
  EXPECT_LT(g1.num_edges(), p.num_directed_edges());
}

TEST(Rmat, SeedChangesTheGraph) {
  RmatParams p = small_params();
  const Graph g1 = gen::rmat(p);
  p.seed = 43;
  const Graph g2 = gen::rmat(p);
  ASSERT_EQ(g1.num_vertices(), g2.num_vertices());
  bool differs = g1.num_edges() != g2.num_edges();
  for (Vertex v = 0; v < g1.num_vertices() && !differs; ++v) {
    const auto a = g1.neighbors(v), b = g2.neighbors(v);
    differs = !std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  EXPECT_TRUE(differs);
}

TEST(Rmat, ScramblingPermutesButPreservesRange) {
  RmatParams p = small_params();
  p.scramble_ids = false;
  const Graph unscrambled = gen::rmat(p);
  p.scramble_ids = true;
  const Graph scrambled = gen::rmat(p);
  // A bijection on ids preserves the vertex count and cannot push ids
  // out of [0, n) — from_source would have aborted otherwise.
  EXPECT_EQ(scrambled.num_vertices(), p.num_vertices());
  // Unscrambled RMAT concentrates degree at low ids; the mix must
  // actually change the adjacency, not just relabel nothing.
  bool differs = false;
  for (Vertex v = 0; v < scrambled.num_vertices() && !differs; ++v) {
    const auto a = scrambled.neighbors(v), b = unscrambled.neighbors(v);
    differs = !std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  EXPECT_TRUE(differs);
}

TEST(Rmat, StreamingBuildMatchesStagedBuilderOnRawPairs) {
  const RmatParams p = small_params();
  const RmatSource src(p);
  const Graph streamed = Graph::from_source(p.num_vertices(), src, 2);
  GraphBuilder builder(p.num_vertices());
  src.stream(1, [&](EdgeBlockSource::Block block) {
    for (std::size_t i = 0; i + 1 < block.size(); i += 2)
      if (block[i] != block[i + 1]) builder.add_edge(block[i], block[i + 1]);
  });
  const Graph staged = std::move(builder).build();
  ASSERT_EQ(streamed.num_edges(), staged.num_edges());
  for (Vertex v = 0; v < streamed.num_vertices(); ++v) {
    const auto a = streamed.neighbors(v), b = staged.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "neighbors of " << v;
  }
}

TEST(Rmat, StatsSweepIsConsistent) {
  const Graph g = gen::rmat(small_params());
  const GraphStats s = compute_graph_stats(g);
  EXPECT_EQ(s.n, g.num_vertices());
  EXPECT_EQ(s.m, g.num_edges());
  EXPECT_EQ(s.max_degree, g.max_degree());
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : s.degree_hist_log2) hist_total += c;
  EXPECT_EQ(hist_total, g.num_vertices());
  EXPECT_EQ(s.degree_hist_log2[0], s.num_isolated);
  EXPECT_GE(s.arboricity_estimate, 1u);
  EXPECT_DOUBLE_EQ(s.avg_degree,
                   2.0 * static_cast<double>(s.m) / static_cast<double>(s.n));
}

TEST(Rmat, SpecParsing) {
  const RmatParams p = gen::parse_rmat_spec("24x16", 7);
  EXPECT_EQ(p.scale, 24u);
  EXPECT_EQ(p.edge_factor, 16u);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DEATH((void)gen::parse_rmat_spec("24"), "rmat spec");
  EXPECT_DEATH((void)gen::parse_rmat_spec("x16"), "rmat spec");
  EXPECT_DEATH((void)gen::parse_rmat_spec("24x"), "rmat spec");
  EXPECT_DEATH((void)gen::parse_rmat_spec("abcx16"), "rmat spec");
}

TEST(Rmat, ParameterValidation) {
  RmatParams p = small_params();
  p.scale = 0;
  EXPECT_DEATH((void)gen::rmat(p), "scale");
  p = small_params();
  p.scale = 31;
  EXPECT_DEATH((void)gen::rmat(p), "scale");
  p = small_params();
  p.a = 0.9;
  p.b = 0.09;
  p.c = 0.02;  // a + b + c >= 1 leaves no mass for quadrant d
  EXPECT_DEATH((void)gen::rmat(p), "probabilit");
  p = small_params();
  p.edge_factor = 0;
  EXPECT_DEATH((void)gen::rmat(p), "edge_factor");
}

}  // namespace
}  // namespace valocal
