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

// The pick as first written, with `%` and `/` by q in the digit split
// and in every Horner step: the reference the division-free pick must
// match bit for bit.
std::uint64_t reference_pick(const CoverFreeFamily& f, std::uint64_t color,
                             const std::vector<std::uint64_t>& others) {
  const std::uint64_t q = f.prime();
  const unsigned d = f.degree();
  const auto digits = [&](std::uint64_t c) {
    std::vector<std::uint64_t> out(d);
    for (unsigned i = 0; i < d; ++i) {
      out[i] = c % q;
      c /= q;
    }
    return out;
  };
  const auto eval = [&](const std::vector<std::uint64_t>& poly,
                        std::uint64_t x) {
    std::uint64_t acc = 0;
    for (unsigned i = d; i-- > 0;) acc = (acc * x + poly[i]) % q;
    return acc;
  };
  const std::vector<std::uint64_t> own = digits(color);
  std::vector<std::vector<std::uint64_t>> diffs;
  for (std::uint64_t other : others) {
    if (other == color) continue;
    std::vector<std::uint64_t> diff = digits(other);
    for (unsigned i = 0; i < d; ++i)
      diff[i] = diff[i] >= own[i] ? diff[i] - own[i] : diff[i] + q - own[i];
    diffs.push_back(std::move(diff));
  }
  for (std::uint64_t j = 0; j < q; ++j) {
    std::size_t p = 0;
    while (p < diffs.size() && eval(diffs[p], j) != 0) ++p;
    if (p == diffs.size()) return j * q + eval(own, j);
  }
  ADD_FAILURE() << "no escape";
  return 0;
}

// A random color whose polynomial agrees with `color`'s at point j0:
// a random color with its lowest digit solved for the agreement, so
// the difference polynomial's other digits are random. Returns `color`
// itself when no such other color is in the family (d = 1, or the
// solved digit pushes it past the last color).
std::uint64_t colliding_color(const CoverFreeFamily& f, std::uint64_t color,
                              std::uint64_t j0, Xoshiro256& rng) {
  using u128 = unsigned __int128;
  const std::uint64_t q = f.prime();
  const std::uint64_t x = j0 % q;
  const auto value_at = [&](std::uint64_t c, bool skip_low) {
    std::vector<std::uint64_t> digits(f.degree());
    for (auto& digit : digits) {
      digit = c % q;
      c /= q;
    }
    if (skip_low) digits[0] = 0;
    u128 acc = 0;
    for (unsigned i = f.degree(); i-- > 0;) acc = (acc * x + digits[i]) % q;
    return static_cast<std::uint64_t>(acc);
  };
  const std::uint64_t other = rng.below(f.num_colors());
  const std::uint64_t low =
      (value_at(color, false) + q - value_at(other, true)) % q;
  const std::uint64_t solved = other - other % q + low;
  return solved < f.num_colors() ? solved : color;
}

TEST(CoverFree, PickEscapingMatchesModuloReference) {
  // Families by shape: q = 2 with d = 1; small q; q near 2^16 with
  // d = 1, and with d = 2 and colors near 2^32; colors >= 2^32 (d = 3);
  // q near 2^32 with d = 2;
  // and (2^60, 2^28), whose q^d exceeds 2^64, so its Horner steps
  // reduce instead of evaluating exactly.
  struct Case {
    std::uint64_t m;
    std::size_t r;
  };
  const Case cases[] = {{2, 1},
                        {2, 3},
                        {3, 2},
                        {1ULL << 16, 9},
                        {841, 9},
                        {60000, 65000},
                        {1ULL << 32, 1ULL << 16},
                        {1ULL << 40, 1ULL << 16},
                        {(1ULL << 62) + 12345, 4000000000ULL},
                        {1ULL << 60, 1ULL << 28}};
  Xoshiro256 rng(22);
  for (const Case& c : cases) {
    const CoverFreeFamily f(c.m, c.r);
    std::size_t past_zero = 0;  // picks whose point j* is not 0
    for (int trial = 0; trial < 300; ++trial) {
      const std::uint64_t color = trial == 0 ? c.m - 1 : rng.below(c.m);
      const std::size_t count = rng.below(std::min<std::size_t>(c.r, 12) + 1);
      std::vector<std::uint64_t> others;
      std::uint64_t blocked = 0;  // points 0 .. blocked-1 are hit
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t roll = rng.below(8);
        if (roll == 0)
          others.push_back(color);
        else if (roll >= 4)  // blocks the next point, so j* moves on
          others.push_back(colliding_color(f, color, blocked++, rng));
        else if (roll == 1 && !others.empty())
          others.push_back(others[rng.below(others.size())]);
        else if (roll == 2)  // among the four largest colors
          others.push_back(c.m - 1 - rng.below(std::min<std::uint64_t>(c.m,
                                                                      4)));
        else
          others.push_back(rng.below(c.m));
      }
      const std::uint64_t pick = f.pick_escaping(color, others);
      ASSERT_EQ(pick, reference_pick(f, color, others))
          << "m=" << c.m << " r=" << c.r << " q=" << f.prime()
          << " d=" << f.degree() << " color=" << color
          << " parents=" << others.size();
      if (pick >= f.prime()) ++past_zero;
    }
    // Points past 0 are where the evaluation can overflow or skip a
    // reduction; a d = 1 family cannot be hit by a distinct color.
    if (f.degree() >= 2) {
      EXPECT_GT(past_zero, 30u) << "m=" << c.m;
    }
  }
}

TEST(CoverFree, ModuloReferenceFamiliesCoverTheirShapes) {
  // Pins the shapes PickEscapingMatchesModuloReference claims to cover.
  const CoverFreeFamily two(2, 1);
  EXPECT_EQ(two.prime(), 2u);
  EXPECT_EQ(two.degree(), 1u);
  const CoverFreeFamily flat16(60000, 65000);
  EXPECT_EQ(flat16.prime(), 60013u);
  EXPECT_EQ(flat16.degree(), 1u);
  const CoverFreeFamily near16(1ULL << 32, 1ULL << 16);
  EXPECT_EQ(near16.prime(), 65537u);
  EXPECT_EQ(near16.degree(), 2u);
  const CoverFreeFamily wide(1ULL << 40, 1ULL << 16);
  EXPECT_GT(wide.num_colors(), 1ULL << 32);
  const CoverFreeFamily near32((1ULL << 62) + 12345, 4000000000ULL);
  EXPECT_GT(near32.prime(), 1ULL << 31);
  EXPECT_EQ(near32.degree(), 2u);
  const CoverFreeFamily reduced(1ULL << 60, 1ULL << 28);
  EXPECT_EQ(ipow_capped(reduced.prime(), reduced.degree(), ~0ULL), ~0ULL);
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
