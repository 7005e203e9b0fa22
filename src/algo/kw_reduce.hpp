// Kuhn-Wattenhofer style color reduction: a proper m-coloring of a
// graph with maximum degree <= k becomes a proper (k+1)-coloring in
// O(k * log(m / k)) synchronized rounds.
//
// Each phase views the palette [0, m) as blocks of g = min(m, 2(k+1))
// consecutive colors. Within a phase, one round per in-block index
// s = k+1 .. g-1: every vertex whose color has in-block index s
// simultaneously re-picks the smallest free color among its block's
// first k+1 colors (free w.r.t. neighbors' previous-round colors).
// Adjacent vertices recoloring in the same round either sit in
// different blocks (disjoint targets) or would share a color
// (impossible in a proper coloring), so properness is preserved; a free
// color exists because the target has k+1 colors and at most k
// neighbors block it. The phase ends with the pure remap
// c -> (c / g) * (k+1) + (c % g), shrinking the palette to
// ceil(m / g) * (k+1) — roughly half — until it reaches k+1.
//
// This substitutes for the (Delta+1)-coloring reduction of [7]
// (substitution S2 in DESIGN.md): O(k log k) instead of O(k) rounds.
//
// Most rounds are provable no-ops for a given vertex: a color changes
// only in the round whose step equals its in-block index, and at the
// phase-end remap. first_active() and reads_neighbors() expose that
// structure as pure functions of (round, color), so schedulers can skip
// the no-op rounds and callers can skip gathering neighbor colors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace valocal {

class KwReduction {
 public:
  /// Plan for reducing m0 colors to k+1 on graphs of max degree <= k.
  KwReduction(std::uint64_t m0, std::size_t k);

  std::size_t num_rounds() const { return rounds_.size(); }
  std::uint64_t initial_palette() const { return m0_; }
  std::uint64_t final_palette() const;

  /// Palette size entering round t; t == num_rounds() gives the final
  /// palette.
  std::uint64_t palette_before(std::size_t t) const;

  /// Round t (0-based): own color and the neighbors' colors, all in the
  /// palette of round t; returns the color for round t+1.
  std::uint64_t advance(std::size_t t, std::uint64_t own,
                        std::span<const std::uint64_t> neighbors) const;

  /// Round t for a vertex that did not gather its neighbors' colors,
  /// which is allowed only when !reads_neighbors(t, own). The neighbor
  /// count is taken for parity with DegPlusOnePlan::advance_unread;
  /// like advance(), the reduction checks no degree bound itself.
  std::uint64_t advance_unread(std::size_t t, std::uint64_t own,
                               std::size_t num_neighbors) const;

  /// First round t' >= t whose advance() can return something other
  /// than `color` (a color in round t's palette): the round of the
  /// current phase whose step is color's in-block index if that is
  /// still ahead, else the phase-end remap round. num_rounds() if t is.
  std::size_t first_active(std::size_t t, std::uint64_t color) const;

  /// Whether advance(t, color, ·) reads the neighbor colors at all:
  /// only a recoloring vertex does.
  bool reads_neighbors(std::size_t t, std::uint64_t color) const {
    const Round& r = rounds_[t];
    return color % r.group == r.step;
  }

 private:
  struct Round {
    std::uint64_t palette;  // palette size entering this round
    std::uint64_t group;    // block size g
    std::uint64_t step;     // in-block index recolored this round
    bool remap_after;       // apply the phase-end remap after this round
  };

  std::uint64_t m0_;
  std::size_t k_;
  std::vector<Round> rounds_;
};

}  // namespace valocal
