// Procedure One-Plus-Eta-Arb-Col (Section 7.8.2, Theorem 7.21):
// O(a^{1+eta})-vertex-coloring with vertex-averaged complexity
// O(log a * log log n), for an arbitrarily small constant eta =
// Theta(1 / log C).
//
// Recursive structure, per invocation on a subgraph with arboricity
// bound a:
//   a < C  : base case — the O(a^2)-coloring of Section 7.6 with k = 2
//            (its per-vertex round counts are preserved, keeping the
//            vertex-averaged structure of the leaves);
//   a >= C : (i) r = ceil(2 log log n) rounds of Procedure Partition
//            split V into H (the first r H-sets) and V \ H;
//            (ii) V \ H is colored by Procedure Legal-Coloring
//            (One-Plus-Eta-Legal-Coloring of [5] with p = C), prefix 1;
//            (iii) H gets an H-Arbdefective O(C)-coloring with
//            k = t = (3+eps)C, eps = 2, and each induced class recurses
//            with arboricity bound floor(a/t + (2+eps)a/k) = O(a/C),
//            prefix 2j.
//
// Like the arbdefective toolkit this is a centralized round-faithful
// driver (see arbdefective.hpp): synchronized stage durations come from
// actual stage simulations, and r(v) sums the durations of the stages v
// participates in.
#pragma once

#include <cstdint>

#include "algo/arbdefective.hpp"
#include "algo/result.hpp"
#include "graph/graph.hpp"

namespace valocal {

struct OnePlusEtaParams {
  std::size_t arboricity = 1;
  /// The constant C: eta ~ 6 / log2(C). Must be >= 6 so the inner
  /// Legal-Coloring converges (p > 3 + eps with eps = 2).
  std::size_t big_c = 8;
};

ColoringResult compute_one_plus_eta(const Graph& g, OnePlusEtaParams params);

}  // namespace valocal
