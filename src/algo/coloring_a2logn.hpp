// O(a^2 log n)-vertex-coloring with O(1) vertex-averaged complexity
// (Section 7.2, Theorem 7.2).
//
// The algorithm interleaves Procedure Parallelized-Forest-Decomposition
// with a single round of Procedure Arb-Linial-Coloring per H-set: as
// soon as H_i forms, each v in H_i picks an element of F_{ID(v)} (from
// an (n, A)-cover-free family) escaping the union of its parents' sets
// — parents being all neighbors in the same-or-later H-sets, i.e. the
// simultaneous joiners with larger ID plus the still-active neighbors.
// Since parents' eventual colors live inside their own F-sets, the pick
// is proper against both past and future decisions. Every vertex
// terminates one round after joining, so the vertex-averaged complexity
// is O(1); the palette is the family's ground set, O(a^2 log^2 n / ...)
// = O~(a^2 log n) (substitution S1).
#pragma once

#include <memory>

#include "algo/result.hpp"
#include "algo/partition.hpp"
#include "coverfree/coverfree.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class ColoringA2LogNAlgo {
 public:
  struct State : PartitionState {
    std::int64_t color = -1;
  };
  using Output = int;

  ColoringA2LogNAlgo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.color);
  }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const { return family_->ground_size(); }

  // Trace phases (trace::PhaseTraced). Partition and coloring
  // interleave within each round — the per-vertex classifier splits
  // the round-sum exactly: a vertex is partitioning until it joins an
  // H-set and spends exactly one charged round coloring.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t,
                             const State& s) const {
    return s.hset == 0 ? 0 : 1;
  }

 private:
  static constexpr const char* kTracePhases[] = {"partition", "color"};

  PartitionParams params_;
  std::shared_ptr<const CoverFreeFamily> family_;
};

ColoringResult compute_coloring_a2logn(const Graph& g,
                                       PartitionParams params);

}  // namespace valocal
