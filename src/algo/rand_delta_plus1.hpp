// Randomized (Delta+1)-vertex-coloring with vertex-averaged complexity
// O(1) with high probability (Section 9.2, Theorem 9.1) — Procedure
// Rand-Delta-Plus1 of [4], a variant of Luby's algorithm.
//
// Each trial: flip a fair coin; on heads draw a uniform color from
// {0..Delta} minus the final colors of neighbors, and keep it as the
// final color unless some neighbor drew or holds the same color. A
// vertex terminates with probability >= 1/4 per trial, so the active
// population decays geometrically and RoundSum = O(n) w.h.p.
//
// Engine realization: one trial = two rounds (publish the draw, then
// resolve) — a constant factor on all bounds.
#pragma once

#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class RandDeltaPlusOneAlgo {
 public:
  struct State {
    std::int32_t proposal = -1;
    std::int32_t final_color = -1;
  };
  using Output = int;

  explicit RandDeltaPlusOneAlgo(std::size_t max_degree)
      : max_degree_(max_degree) {}

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const;

  Output output(Vertex, const State& s) const { return s.final_color; }

  std::size_t palette_bound() const { return max_degree_ + 1; }

 private:
  std::size_t max_degree_;
};

ColoringResult compute_rand_delta_plus1(const Graph& g,
                                        std::uint64_t seed = 0x5eed);

}  // namespace valocal
