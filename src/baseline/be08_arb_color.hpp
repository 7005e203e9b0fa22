// Baseline: Procedure Arb-Color of [8] (Barenboim-Elkin 2008) — the
// classical O(a)-coloring whose WORST-CASE complexity O(a log n) is the
// "previous running time" column of Table 1 rows 1-2. Realized here as:
//
//   rounds [1, ell]          Procedure Partition, run to the full
//                            worst-case bound ell = O(log n);
//   (ell, ell+S]             global Arb-Linial ladder over the
//                            (hset, ID) forest orientation;
//   (ell+S, ell+S+K]         Kuhn-Wattenhofer reduction of the ladder
//                            colors to A+1 *within* each H-set
//                            (substitution S2);
//   final stage              wait-for-parents recoloring from {0..A},
//                            parents = later H-set or same H-set with
//                            larger auxiliary color; chains span at
//                            most ell*(A+1) levels = O(a log n).
//
// Run-to-completion semantics: every vertex terminates at the LAST
// scheduled round, so the vertex-averaged complexity equals the worst
// case — exactly the behavior the paper's techniques remove.
#pragma once

#include <memory>

#include "algo/arb_linial.hpp"
#include "algo/result.hpp"
#include "algo/kw_reduce.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class Be08ArbColorAlgo {
 public:
  struct State : PartitionState {
    std::uint64_t aux = 0;
    std::int32_t pick = -1;
  };
  using Output = int;

  Be08ArbColorAlgo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const { return s.pick; }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const { return params_.threshold() + 1; }

 private:
  PartitionParams params_;
  std::size_t ell_ = 0, ladder_steps_ = 0, kw_rounds_ = 0, end_ = 0;
  std::shared_ptr<const ArbLinialLadder> ladder_;
  std::shared_ptr<const KwReduction> kw_;
};

ColoringResult compute_be08_arb_color(const Graph& g,
                                      PartitionParams params);

}  // namespace valocal
