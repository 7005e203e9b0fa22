// Arbdefective coloring as a public, stand-alone LOCAL algorithm (the
// b-arbdefective c-coloring notion of Section 7.8 / [5]).
//
// A b-arbdefective k-coloring assigns one of k colors so that every
// color class induces a subgraph of arboricity at most b. Construction
// with a REAL guarantee (unlike naive bucketing of a proper coloring,
// whose same-color neighbor count is unbounded):
//
//   1. compute a proper auxiliary (D+1)-coloring (DegPlusOnePlan);
//   2. orient every edge towards the larger auxiliary color (acyclic);
//   3. sweep auxiliary slots in DESCENDING order: at its slot, each
//      vertex picks the bucket least used among its parents (all of
//      which have already picked), so it gains at most floor(D/k)
//      same-bucket parents.
//
// Every color class therefore carries an acyclic orientation with
// out-degree <= floor(D/k): class arboricity (and even degeneracy) is
// at most max(1, floor(D/k)). Rounds: O(D log D + log* n) for the plan
// plus D+1 sweep slots; vertices terminate at their own slot, so the
// sweep contributes to the vertex-averaged cost only its average slot.
#pragma once

#include <cstdint>
#include <memory>

#include "algo/result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

struct ArbdefectiveColoringParams {
  /// Number of colors (buckets) k >= 1.
  std::size_t colors = 4;
  /// Degree bound D; Delta(G) is used if 0.
  std::size_t degree_bound = 0;
};

/// The promised per-class arboricity/degeneracy bound.
std::size_t arbdefective_class_bound(std::size_t degree_bound,
                                     std::size_t colors);

/// The construction above as a LOCAL algorithm: plan rounds 1 .. L,
/// then sweep slot i (round L + 1 + i) retires auxiliary color D - i.
class ArbdefectiveLocalAlgo {
 public:
  struct State {
    std::uint64_t aux = 0;
    std::int32_t bucket = -1;
  };
  using Output = int;

  ArbdefectiveLocalAlgo(std::size_t num_vertices, std::size_t degree_bound,
                        std::size_t colors);

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const { return s.bucket; }

  static constexpr bool uses_rng = false;

 private:
  std::size_t degree_bound_;
  std::size_t colors_;
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

/// Runs the construction above; result.color[v] in [0, colors).
ColoringResult compute_arbdefective_coloring(
    const Graph& g, ArbdefectiveColoringParams params);

}  // namespace valocal
