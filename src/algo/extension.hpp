// The extension-from-any-partial-solution framework (Section 8,
// Theorem 8.2).
//
// A problem P is "of extension from any partial solution" if any proper
// partial solution on a subgraph can be extended to a proper solution
// on the whole graph without changing it — vertex coloring, MIS,
// (2Delta-1)-edge-coloring and maximal matching all qualify. The
// framework converts a worst-case f(Delta, n) algorithm A for P into a
// vertex-averaged O(f(a, n)) algorithm A' by composing A with Procedure
// Partition (Section 6.2): the execution is a sequence of ell =
// O(log n) iterations, iteration i being one Partition round that forms
// H_i followed by T = O(f(A, n)) rounds in which ONLY the vertices of
// H_i run A on G(H_i) (plus, for edge problems, an algorithm B that
// stitches the edges crossing into the already-solved prefix). Since
// the active population decays geometrically and each iteration charges
// every still-active vertex O(T) rounds, the vertex-averaged complexity
// is O(T) = O(f(a, n)) (Corollary 6.4).
//
// CompositionSchedule below is the shared round arithmetic; the four
// instantiations are algo/delta_plus1.hpp (Cor 8.3), algo/mis.hpp
// (Cor 8.4/8.5), algo/edge_coloring.hpp (Cor 8.6/8.7) and
// algo/matching.hpp (Cor 8.8/8.9).
//
// LOCAL subtlety this library resolves explicitly: for the edge
// problems, a terminated vertex cannot relay decisions made later about
// its incident edges, so edges crossing from H_i to STILL-ACTIVE
// vertices are decided during iteration i itself — the still-active
// endpoint (the "head", which is awake anyway and whose waiting rounds
// are already charged) performs the assignment reading both endpoints'
// published state, and the H_i endpoint ingests the result before
// terminating. One label per 2-round sub-step keeps all decisions
// visible and race-free and costs O(A) rounds per iteration, preserving
// Theorem 8.2's bound.
#pragma once

#include <cstddef>

#include "algo/segmentation.hpp"

namespace valocal {

/// Round arithmetic for the Section 6.2 composition: ell iterations of
/// (1 partition round + sub_rounds subroutine rounds).
struct CompositionSchedule {
  std::size_t ell;         // number of iterations
  std::size_t sub_rounds;  // T: subroutine rounds per iteration

  CompositionSchedule(std::size_t n, double eps, std::size_t sub)
      : ell(partition_round_bound(n, eps)), sub_rounds(sub) {}

  std::size_t block() const { return 1 + sub_rounds; }
  std::size_t total_rounds() const { return ell * block(); }

  /// Iteration (1-based) containing this engine round.
  std::size_t iteration(std::size_t round) const {
    return (round - 1) / block() + 1;
  }

  /// Position within the block: 0 = the partition round, 1..sub_rounds
  /// = subroutine rounds.
  std::size_t position(std::size_t round) const {
    return (round - 1) % block();
  }

  /// Engine round at position `pos` of iteration `iter` (the inverse of
  /// iteration() and position()).
  std::size_t round_of(std::size_t iter, std::size_t pos) const {
    return (iter - 1) * block() + 1 + pos;
  }
};

}  // namespace valocal
