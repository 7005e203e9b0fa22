// Baseline: Luby's randomized MIS [21/22] — the classical O(log n)
// w.h.p. comparator for Table 2. Each 2-round trial: draw a random
// priority; a vertex that beats all active neighbors joins the MIS and
// its neighbors drop out. Luby terminates vertices as they decide, so
// it has a nontrivial vertex-averaged profile of its own — the bench
// reports both VA and worst case.
#pragma once


#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class LubyMisAlgo {
 public:
  struct State {
    std::uint64_t priority = 0;
    bool drawn = false;
    std::int8_t status = 0;  // 0 undecided, 1 in MIS, -1 dominated
  };
  using Output = std::int8_t;

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const;

  Output output(Vertex, const State& s) const { return s.status; }
};

MisResult compute_luby_mis(const Graph& g,
                               std::uint64_t seed = 0x5eed);

}  // namespace valocal
