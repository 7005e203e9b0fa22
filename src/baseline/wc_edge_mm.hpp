// Baselines for Table 2: classical worst-case (2Delta-1)-edge-coloring
// and maximal matching with run-to-completion semantics (VA = WC).
//
// Edge coloring: the (D+1)-plan on the line graph of the WHOLE graph
// (line degree <= 2 Delta - 2 => palette 2 Delta - 1), every vertex
// driving all of its incident edges, everyone terminating together
// after the fixed schedule — O(Delta log Delta + log* m) rounds, the
// library's stand-in for the worst-case comparator class of [24]/[6,7]
// (substitution S2 applies).
//
// Maximal matching: the same edge coloring followed by the classical
// color-class sweep (each class is a matching), again run to
// completion: O(Delta log Delta + log* m) rounds total.
#pragma once

#include <memory>
#include <vector>

#include "algo/deg_plus_one_plan.hpp"
#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class WcEdgeColoringAlgo {
 public:
  struct State {
    std::vector<std::int64_t> lcolor;  // per incident port
  };
  using Output = std::vector<std::int64_t>;

  WcEdgeColoringAlgo(std::size_t num_edges, std::size_t max_degree);

  void init(Vertex v, const Graph& g, State& s) const;

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const { return s.lcolor; }

  static constexpr bool uses_rng = false;

 private:
  /// The (line degree + 1)-plan over all of G's edges; none at
  /// Delta <= 1.
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

/// Run-to-completion (2Delta-1)-edge-coloring; VA == WC.
EdgeColoringResult compute_wc_edge_coloring(const Graph& g);

/// Run-to-completion maximal matching (edge coloring + class sweep);
/// VA == WC.
MatchingResult compute_wc_matching(const Graph& g);

}  // namespace valocal
