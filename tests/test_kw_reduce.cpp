#include "algo/kw_reduce.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "algo/deg_plus_one_plan.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

// Centralized synchronous simulation of a KW plan: every vertex runs
// every round (double-buffered), starting from the given proper colors.
std::vector<std::uint64_t> simulate_kw(const Graph& g,
                                       const KwReduction& kw,
                                       std::vector<std::uint64_t> color) {
  for (std::size_t t = 0; t < kw.num_rounds(); ++t) {
    std::vector<std::uint64_t> next(color.size());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::vector<std::uint64_t> nbrs;
      for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
      next[v] = kw.advance(t, color[v], nbrs);
    }
    color = std::move(next);
  }
  return color;
}

std::vector<int> to_int(const std::vector<std::uint64_t>& c) {
  return {c.begin(), c.end()};
}

TEST(KwReduction, NoRoundsWhenAlreadySmall) {
  const KwReduction kw(4, 5);
  EXPECT_EQ(kw.num_rounds(), 0u);
  EXPECT_EQ(kw.final_palette(), 4u);
}

TEST(KwReduction, RoundCountIsKLogMoverK) {
  const std::size_t k = 7;
  const KwReduction kw(1024, k);
  // Each halving phase costs k+1 rounds; ~log2(1024/8) = 7 phases.
  EXPECT_LE(kw.num_rounds(), (k + 1) * 9);
  EXPECT_GE(kw.num_rounds(), (k + 1) * 3);
}

TEST(KwReduction, ReducesIdsToDeltaPlusOneOnRing) {
  const Graph g = gen::ring(100);
  const KwReduction kw(100, g.max_degree());
  std::vector<std::uint64_t> ids(100);
  for (Vertex v = 0; v < 100; ++v) ids[v] = v;
  const auto final = simulate_kw(g, kw, ids);
  const auto color = to_int(final);
  EXPECT_TRUE(is_proper_coloring(g, color));
  for (auto c : final) EXPECT_LT(c, g.max_degree() + 1);
}

TEST(KwReduction, ProperAfterEveryRound) {
  const Graph g = gen::erdos_renyi(150, 6.0, 2);
  const std::size_t k = g.max_degree();
  const KwReduction kw(150, k);
  std::vector<std::uint64_t> color(150);
  for (Vertex v = 0; v < 150; ++v) color[v] = v;
  for (std::size_t t = 0; t < kw.num_rounds(); ++t) {
    std::vector<std::uint64_t> next(color.size());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::vector<std::uint64_t> nbrs;
      for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
      next[v] = kw.advance(t, color[v], nbrs);
    }
    color = std::move(next);
    EXPECT_TRUE(is_proper_coloring(g, to_int(color))) << "round " << t;
  }
  for (auto c : color) EXPECT_LE(c, k);
}

class KwSweep : public ::testing::TestWithParam<
                    std::tuple<std::size_t, double, std::uint64_t>> {};

TEST_P(KwSweep, AlwaysProperAndTight) {
  const auto [n, avg_deg, seed] = GetParam();
  const Graph g = gen::erdos_renyi(n, avg_deg, seed);
  const std::size_t k = std::max<std::size_t>(1, g.max_degree());
  const KwReduction kw(n, k);
  std::vector<std::uint64_t> ids(n);
  for (Vertex v = 0; v < n; ++v) ids[v] = v;
  const auto final = simulate_kw(g, kw, ids);
  EXPECT_TRUE(is_proper_coloring(g, to_int(final)));
  for (auto c : final) EXPECT_LE(c, k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwSweep,
    ::testing::Combine(::testing::Values(50, 200, 800),
                       ::testing::Values(2.0, 5.0, 10.0),
                       ::testing::Values(1, 2, 3)));

TEST(DegPlusOnePlan, ColorsArbitraryGraphWithDeltaPlusOne) {
  for (std::uint64_t seed : {1ULL, 7ULL}) {
    const Graph g = gen::erdos_renyi(300, 7.0, seed);
    const std::size_t d = std::max<std::size_t>(1, g.max_degree());
    const DegPlusOnePlan plan(300, d);
    std::vector<std::uint64_t> color(300);
    for (Vertex v = 0; v < 300; ++v) color[v] = v;
    for (std::size_t t = 0; t < plan.num_rounds(); ++t) {
      std::vector<std::uint64_t> next(color.size());
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        std::vector<std::uint64_t> nbrs;
        for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
        next[v] = plan.advance(t, color[v], nbrs);
      }
      color = std::move(next);
    }
    EXPECT_TRUE(is_proper_coloring(g, to_int(color)));
    for (auto c : color) EXPECT_LT(c, plan.palette());
  }
}

TEST(DegPlusOnePlan, RoundCountScalesWithDNotN) {
  // log* n term only: for fixed D, doubling n barely changes rounds.
  const DegPlusOnePlan small(1 << 10, 8);
  const DegPlusOnePlan large(1 << 20, 8);
  EXPECT_LE(large.num_rounds(), small.num_rounds() + 4);
}

// Soundness oracle for the plan's scheduling queries, which wake hints
// park vertices on. For every round t and every color c of the palette
// after round t, each round strictly between t and next_active(t, c)
// must return c unchanged whatever the (<= D) neighbor colors are; and
// a round with reads_neighbors(t, c) false must ignore the neighbors.
// Neighbor sets are seeded random draws from the round's palette.
// Counts into `skipped` the rounds the hints let a vertex skip, so
// callers can check the oracle actually exercised something.
void expect_sound_schedule_queries(std::uint64_t num_ids, std::size_t d,
                                   std::size_t& skipped) {
  const DegPlusOnePlan plan(num_ids, d);
  Xoshiro256 rng(num_ids * 31 + d);
  std::vector<std::uint64_t> nbrs;
  const auto draw_neighbors = [&](std::uint64_t palette,
                                  std::uint64_t own) {
    nbrs.clear();
    const std::size_t size = rng.below(d + 1);
    for (std::size_t i = 0; i < size && palette > 1; ++i) {
      std::uint64_t c = rng.below(palette - 1);
      nbrs.push_back(c >= own ? c + 1 : c);  // proper: never own
    }
  };
  skipped = 0;
  for (std::size_t t = 0; t < plan.num_rounds(); ++t) {
    // Rounds after t: the hint may skip every round before next_active.
    const std::uint64_t after = plan.palette_after(t);
    for (std::uint64_t c = 0; c < after; ++c) {
      const std::size_t next = plan.next_active(t, c);
      ASSERT_GT(next, t);
      ASSERT_LE(next, plan.num_rounds());
      for (std::size_t u = t + 1; u < next; ++u) {
        draw_neighbors(plan.palette_after(u - 1), c);
        ASSERT_EQ(plan.advance(u, c, nbrs), c)
            << "round " << u << " changes color " << c
            << " although next_active(" << t << ") = " << next;
        ++skipped;
      }
    }
    // Round t itself: a vertex that does not read may skip gathering.
    const std::uint64_t before = t == 0 ? num_ids : plan.palette_after(t - 1);
    for (std::uint64_t c = 0; c < before; ++c) {
      if (plan.reads_neighbors(t, c)) continue;
      draw_neighbors(before, c);
      const std::uint64_t unread = plan.advance_unread(t, c, nbrs.size());
      ASSERT_EQ(plan.advance(t, c, nbrs), unread)
          << "round " << t << " reads the neighbors of color " << c;
      ASSERT_EQ(plan.advance(t, c, {}), unread);
    }
  }
}

TEST(DegPlusOnePlan, NextActiveAndReadsNeighborsAreSound) {
  // (2^16, 9): the det-catalog vertex plan (A = 9 at a = 3, eps = 1);
  // (2^12, 16): the edge entries' line plan (D = 2A - 2 = 16).
  for (const auto& [num_ids, d] :
       {std::pair<std::uint64_t, std::size_t>{1u << 16, 9},
        {1u << 12, 16}}) {
    SCOPED_TRACE(num_ids);
    std::size_t skipped = 0;
    expect_sound_schedule_queries(num_ids, d, skipped);
    EXPECT_GT(skipped, 0u);
  }
}

TEST(DegPlusOnePlan, NextActiveIsSoundWithAnEmptyLadder) {
  // Few enough IDs that the plan is Kuhn-Wattenhofer from round 0.
  const std::uint64_t num_ids = 40;
  const std::size_t d = 9;
  const DegPlusOnePlan plan(num_ids, d);
  ASSERT_GT(plan.num_rounds(), 0u);
  // Ladder rounds always read; a non-reading round-0 color proves the
  // ladder is empty.
  bool kw_from_round_zero = false;
  for (std::uint64_t c = 0; c < num_ids; ++c)
    kw_from_round_zero |= !plan.reads_neighbors(0, c);
  ASSERT_TRUE(kw_from_round_zero);
  std::size_t skipped = 0;
  expect_sound_schedule_queries(num_ids, d, skipped);
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace valocal
