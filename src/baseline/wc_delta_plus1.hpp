// Baseline: classical worst-case (Delta+1)-vertex-coloring — Linial's
// iterated reduction plus Kuhn-Wattenhofer — run by every vertex to
// global completion. No vertex terminates early, so the vertex-averaged
// complexity EQUALS the worst case, O(Delta log Delta + log* n). This is
// the comparator column of Table 1 row 7 and ablation AB3.
//
// The simulator parks a vertex through the KW stage's no-op rounds
// (DegPlusOnePlan::next_active) and wakes it for the plan's last round,
// in which every vertex terminates. Parked rounds are still charged, so
// r(v) = num_rounds() for every vertex and VA = WC.
#pragma once

#include <algorithm>
#include <memory>

#include "algo/result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/line_plan.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class WorstCaseDeltaPlusOneAlgo {
 public:
  struct State {
    std::uint64_t color = 0;
  };
  using Output = int;

  /// No plan at Delta = 0: every vertex takes color 0 at once.
  WorstCaseDeltaPlusOneAlgo(std::size_t num_vertices,
                            std::size_t max_degree)
      : plan_(max_degree == 0
                  ? nullptr
                  : std::make_shared<DegPlusOnePlan>(
                        std::max<std::size_t>(1, num_vertices),
                        max_degree)) {}

  void init(Vertex v, const Graph&, State& s) const {
    s.color = plan_ ? v : 0;
  }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    if (!plan_ || plan_->num_rounds() == 0) return true;  // nothing to do
    next.color = graph_plan_round(*plan_, round - 1, view,
                                  [](const State& s) { return s.color; });
    return round >= plan_->num_rounds();
  }

  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.color);
  }

  /// Wake hint (WakeHinted): plan round t runs in engine round t + 1,
  /// so the vertex sleeps to the round of the next plan round that can
  /// change its color, but never past the plan's last round, where it
  /// terminates.
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    const std::size_t active = plan_->next_active(round - 1, s.color) + 1;
    return std::max(round + 1, std::min(active, plan_->num_rounds()));
  }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const {
    return plan_ ? static_cast<std::size_t>(plan_->palette()) : 1;
  }

 private:
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

ColoringResult compute_wc_delta_plus1(const Graph& g);

}  // namespace valocal
