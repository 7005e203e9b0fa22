#include "coverfree/coverfree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace valocal {
namespace {

TEST(CoverFree, SetsHaveDeclaredSize) {
  const CoverFreeFamily f(100, 3);
  for (std::uint64_t c : {0ULL, 1ULL, 57ULL, 99ULL}) {
    const auto s = f.set_of(c);
    EXPECT_EQ(s.size(), f.set_size());
    for (auto x : s) EXPECT_LT(x, f.ground_size());
    // Elements are distinct (one per evaluation point).
    std::set<std::uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
  }
}

TEST(CoverFree, DistinctColorsHaveDistinctSets) {
  const CoverFreeFamily f(64, 2);
  std::set<std::vector<std::uint64_t>> seen;
  for (std::uint64_t c = 0; c < 64; ++c)
    EXPECT_TRUE(seen.insert(f.set_of(c)).second) << c;
}

TEST(CoverFree, PairwiseIntersectionsBounded) {
  // Two degree-<d polynomials agree on at most d-1 points.
  const CoverFreeFamily f(200, 4);
  const auto bound = static_cast<std::size_t>(f.degree() - 1);
  for (std::uint64_t c1 = 0; c1 < 40; ++c1)
    for (std::uint64_t c2 = c1 + 1; c2 < 40; ++c2) {
      const auto s1 = f.set_of(c1);
      const auto s2 = f.set_of(c2);
      std::vector<std::uint64_t> inter;
      std::set_intersection(s1.begin(), s1.end(), s2.begin(), s2.end(),
                            std::back_inserter(inter));
      EXPECT_LE(inter.size(), bound) << c1 << " vs " << c2;
    }
}

TEST(CoverFree, ExhaustiveCoverFreeness) {
  // Brute-force check on a small family: no set is covered by the
  // union of any r = 2 others.
  const std::size_t r = 2;
  const std::uint64_t m = 20;
  const CoverFreeFamily f(m, r);
  for (std::uint64_t c = 0; c < m; ++c) {
    const auto sc = f.set_of(c);
    for (std::uint64_t o1 = 0; o1 < m; ++o1) {
      if (o1 == c) continue;
      for (std::uint64_t o2 = o1 + 1; o2 < m; ++o2) {
        if (o2 == c) continue;
        std::set<std::uint64_t> cover;
        for (auto x : f.set_of(o1)) cover.insert(x);
        for (auto x : f.set_of(o2)) cover.insert(x);
        const bool escaped = std::any_of(
            sc.begin(), sc.end(),
            [&](std::uint64_t x) { return !cover.contains(x); });
        EXPECT_TRUE(escaped) << c << " covered by " << o1 << "," << o2;
      }
    }
  }
}

TEST(CoverFree, PickEscapingAvoidsAllParents) {
  const CoverFreeFamily f(1000, 5);
  std::vector<std::uint64_t> parents{3, 141, 592, 653, 999};
  const std::uint64_t x = f.pick_escaping(42, parents);
  const auto own = f.set_of(42);
  EXPECT_NE(std::find(own.begin(), own.end(), x), own.end());
  for (auto p : parents) {
    const auto sp = f.set_of(p);
    EXPECT_EQ(std::find(sp.begin(), sp.end(), x), sp.end()) << p;
  }
}

TEST(CoverFree, PickEscapingIgnoresOwnColorAmongOthers) {
  const CoverFreeFamily f(50, 3);
  std::vector<std::uint64_t> parents{7, 7, 9};
  EXPECT_NO_FATAL_FAILURE({ (void)f.pick_escaping(7, parents); });
}

TEST(CoverFree, PickEscapingMatchesSetReference) {
  // The pick is pinned, not just escaping: it must be the smallest
  // element of F_color outside the union of the other colors' sets.
  // (2^16, 9) is the family the benchmark's catalog runs; parent lists
  // mix in duplicates and copies of the color itself.
  struct Case {
    std::uint64_t m;
    std::size_t r;
  };
  const Case cases[] = {{1ULL << 16, 9}, {1ULL << 20, 8}, {1000, 5},
                        {841, 9},        {64, 2},         {20, 2},
                        {7, 1},          {2, 3}};
  Xoshiro256 rng(2018);
  for (const Case& c : cases) {
    const CoverFreeFamily f(c.m, c.r);
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t color = rng.below(c.m);
      const std::size_t count = rng.below(c.r + 1);
      std::vector<std::uint64_t> others;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t roll = rng.below(8);
        if (roll == 0)
          others.push_back(color);
        else if (roll == 1 && !others.empty())
          others.push_back(others[rng.below(others.size())]);
        else
          others.push_back(rng.below(c.m));
      }
      std::set<std::uint64_t> cover;
      for (std::uint64_t o : others)
        if (o != color)
          for (std::uint64_t x : f.set_of(o)) cover.insert(x);
      const auto own = f.set_of(color);
      const auto expected = std::find_if(
          own.begin(), own.end(),
          [&](std::uint64_t x) { return !cover.contains(x); });
      ASSERT_NE(expected, own.end());
      EXPECT_EQ(f.pick_escaping(color, others), *expected)
          << "m=" << c.m << " r=" << c.r << " color=" << color
          << " parents=" << others.size();
    }
  }
}

TEST(CoverFree, GroundSizeIsSubquadraticForLargeM) {
  // For m = 2^20, r = 8, the polynomial construction must beat the
  // trivial m ground set by orders of magnitude.
  const CoverFreeFamily f(1ULL << 20, 8);
  EXPECT_LT(f.ground_size(), 1ULL << 16);
  EXPECT_GE(ipow_capped(f.prime(), f.degree(), ~0ULL >> 1), 1ULL << 20);
}

TEST(ArbLinialSchedule, StrictlyDecreasingToFixedPoint) {
  const auto seq = arb_linial_schedule(1ULL << 20, 6);
  ASSERT_GE(seq.size(), 2u);
  for (std::size_t i = 1; i < seq.size(); ++i)
    EXPECT_LT(seq[i], seq[i - 1]);
  // Number of steps is O(log* p0) — generous constant.
  EXPECT_LE(seq.size(), 12u);
  // Fixed point is poly(r): small and essentially independent of p0.
  const auto seq2 = arb_linial_schedule(1ULL << 40, 6);
  EXPECT_LE(seq.back(), 5000u);
  EXPECT_LE(seq2.back(), 5000u);
}

}  // namespace
}  // namespace valocal
