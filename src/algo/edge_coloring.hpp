// (2Delta-1)-edge-coloring with vertex-averaged complexity
// O~(a + log* n) (Corollaries 8.6 / 8.7).
//
// Extension framework instantiation on the edge frame (edge_stage.hpp:
// flag round, line plan on the line graph of G(H_i), sweep, cross
// stage). Iteration i, for the fresh H-set H_i:
//   line plan    — colors the intra-set edges with 2A-1 line colors;
//   resolve      — sweep slot c gives each intra edge of line color c
//                  its final color, the smallest one free at both
//                  endpoints (inside the global {0..2Delta-2} palette);
//   cross stage  — in label j's assign sub-round every ACTIVE head w
//                  assigns greedily distinct free colors to its
//                  incoming label-j edges from H_i (free w.r.t. both
//                  endpoints' published used sets; at most 2Delta-2
//                  forbidden, so {0..2Delta-2} suffices), then the H_i
//                  tails ingest the assignment. Handling cross edges at
//                  the TAIL's iteration with a live head is what makes
//                  the coloring correct under the paper's
//                  terminate-and-freeze semantics (see extension.hpp).
// H_i vertices terminate at the end of their iteration block, so every
// iteration costs O(a log a + log* n) rounds and Corollary 6.4 applies.
#pragma once

#include <vector>

#include "algo/edge_stage.hpp"
#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class EdgeColoringAlgo {
 public:
  struct State : EdgePortState {
    std::vector<std::int32_t> ecolor;  // per incident port; -1 unknown
  };
  using Output = std::vector<std::int32_t>;  // final per-port colors

  EdgeColoringAlgo(std::size_t num_vertices, std::size_t num_edges,
                   PartitionParams params);

  void init(Vertex v, const Graph& g, State& s) const;

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const { return s.ecolor; }

  /// Wake hint (WakeHinted): EdgeStages::next_wake — idle vertices
  /// park to their head duties, members through the line plan's no-op
  /// rounds.
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    return stages_.next_wake(round, s);
  }

  static constexpr bool uses_rng = false;

  // Trace phases (trace::PhaseTraced): the edge frame's stages, with
  // the sweep resolving final intra-set colors.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    return stages_.at(round).stage;
  }

 private:
  static constexpr const char* kTracePhases[] = {
      "partition", "flag", "line_plan", "resolve", "cross"};

  EdgeStages stages_;
};

EdgeColoringResult compute_edge_coloring(const Graph& g,
                                         PartitionParams params);

}  // namespace valocal
