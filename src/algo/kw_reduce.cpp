#include "algo/kw_reduce.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "util/scratch.hpp"

namespace valocal {

KwReduction::KwReduction(std::uint64_t m0, std::size_t k)
    : m0_(m0), k_(k) {
  VALOCAL_REQUIRE(m0 >= 1, "palette must be nonempty");
  std::uint64_t m = m0;
  const std::uint64_t target = k_ + 1;
  while (m > target) {
    const std::uint64_t g = std::min<std::uint64_t>(m, 2 * target);
    for (std::uint64_t s = target; s < g; ++s)
      rounds_.push_back({m, g, s, s + 1 == g});
    m = ceil_div(m, g) * target;
  }
}

std::uint64_t KwReduction::final_palette() const {
  return std::min<std::uint64_t>(m0_, k_ + 1);
}

std::uint64_t KwReduction::palette_before(std::size_t t) const {
  VALOCAL_REQUIRE(t <= rounds_.size(), "round index out of range");
  return t < rounds_.size() ? rounds_[t].palette : final_palette();
}

std::size_t KwReduction::first_active(std::size_t t,
                                      std::uint64_t color) const {
  if (t >= rounds_.size()) return rounds_.size();
  const Round& r = rounds_[t];
  // The phase's rounds carry steps k+1 .. g-1 in order; its last one
  // (step g-1) applies the remap.
  const std::uint64_t index = color % r.group;
  const std::uint64_t ahead = index >= r.step ? index : r.group - 1;
  return t + static_cast<std::size_t>(ahead - r.step);
}

std::uint64_t KwReduction::advance(
    std::size_t t, std::uint64_t own,
    std::span<const std::uint64_t> neighbors) const {
  VALOCAL_REQUIRE(t < rounds_.size(), "round index out of range");
  const Round& r = rounds_[t];
  VALOCAL_DCHECK(own < r.palette, "color exceeds the round's palette");

  std::uint64_t color = own;
  if (reads_neighbors(t, own)) {
    const std::uint64_t base = (own / r.group) * r.group;
    // Smallest color in [base, base + k] unused by any neighbor.
    std::vector<char>& taken = thread_scratch<KwReduction, char>();
    taken.assign(k_ + 1, 0);
    for (std::uint64_t nc : neighbors)
      if (nc >= base && nc < base + k_ + 1)
        taken[nc - base] = 1;
    std::uint64_t pick = 0;
    while (pick <= k_ && taken[pick]) ++pick;
    VALOCAL_ENSURE(pick <= k_,
                   "no free color: neighbor count exceeds the degree bound");
    color = base + pick;
  }
  if (r.remap_after)
    color = (color / r.group) * (k_ + 1) + (color % r.group);
  return color;
}

std::uint64_t KwReduction::advance_unread(std::size_t t, std::uint64_t own,
                                         std::size_t) const {
  VALOCAL_REQUIRE(t < rounds_.size() && !reads_neighbors(t, own),
                  "this round reads the neighbor colors");
  return advance(t, own, {});
}

}  // namespace valocal
