// A synchronized plan for (D+1)-coloring a (sub)graph of maximum degree
// <= D, starting from unique IDs in [0, num_ids):
//
//   rounds 0 .. L-1 : iterated Linial reduction (ArbLinialLadder with
//                     cover parameter D, escaping ALL neighbors) —
//                     IDs -> O(D^2 log D) colors in O(log* n) rounds;
//   rounds L .. L+K-1 : Kuhn-Wattenhofer reduction to D+1 colors in
//                     O(D log D) rounds.
//
// Worst case O(D log D + log* n) — the library's stand-in for the
// O(D + log* n) algorithm of [7] (substitution S2) and the backbone of
// the (deg+1)-list-coloring stand-in for [13] (substitution S3).
//
// The plan is a pure function of (num_ids, D): every vertex derives the
// identical schedule locally, which is what lets the paper's composed
// algorithms budget exact round counts for per-H-set invocations. It
// also makes the plan's no-op rounds computable: next_active() names
// the next round in which a color can change, so a composed algorithm
// can park an H-set member through the rest (every ladder round is
// active; in the Kuhn-Wattenhofer stage only ~1 round in k+1 is).
#pragma once

#include <cstdint>
#include <span>

#include "algo/arb_linial.hpp"
#include "algo/kw_reduce.hpp"

namespace valocal {

class DegPlusOnePlan {
 public:
  DegPlusOnePlan(std::uint64_t num_ids, std::size_t degree_bound);

  std::size_t num_rounds() const {
    return ladder_.num_steps() + kw_.num_rounds();
  }

  /// Final palette size: degree_bound + 1.
  std::uint64_t palette() const { return degree_bound_ + 1; }

  /// Round t: own color plus the <= degree_bound neighbor colors in the
  /// subgraph being colored (all in round t's palette).
  std::uint64_t advance(std::size_t t, std::uint64_t own,
                        std::span<const std::uint64_t> neighbors) const;

  /// Round t for a vertex that did not gather its neighbors' colors,
  /// which is allowed only when !reads_neighbors(t, own). The vertex's
  /// `num_neighbors` in the subgraph still meets the degree-bound
  /// check, exactly as advance() would.
  std::uint64_t advance_unread(std::size_t t, std::uint64_t own,
                               std::size_t num_neighbors) const;

  /// First round t' > t whose advance() can return something other
  /// than `color` (the vertex's color after round t); num_rounds() if
  /// there is none. Every round strictly between t and t' is a no-op
  /// for the vertex, whatever its neighbors hold.
  std::size_t next_active(std::size_t t, std::uint64_t color) const;

  /// Whether advance(t, color, ·) reads the neighbor colors: always on
  /// ladder rounds, only for the recoloring vertices on KW rounds.
  bool reads_neighbors(std::size_t t, std::uint64_t color) const;

  /// Palette size after round t (the palette round t + 1 works in).
  std::uint64_t palette_after(std::size_t t) const;

  std::size_t degree_bound() const { return degree_bound_; }

 private:
  std::size_t degree_bound_;
  ArbLinialLadder ladder_;
  KwReduction kw_;
};

}  // namespace valocal
