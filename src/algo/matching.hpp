// Maximal Matching with vertex-averaged complexity O~(a + log* n)
// (Corollaries 8.8 / 8.9).
//
// Extension framework instantiation on the edge frame (edge_stage.hpp:
// flag round, line plan on the line graph of G(H_i), sweep, cross
// stage). Iteration i, for the fresh H-set H_i:
//   line plan     — (2A-1)-edge-color the intra-set edges (each color
//                   class is a matching);
//   intra sweep   — in slot c every still-unmatched intra-set edge of
//                   color c whose endpoints were both unmatched joins
//                   the matching (color classes are vertex-disjoint, so
//                   no races);
//   cross stage   — in label j's assign sub-round every ACTIVE
//                   unmatched head w accepts the smallest-ID unmatched
//                   H_i tail whose label-j edge points at w; the tails
//                   then ingest the acceptance. Every out-neighbor of a
//                   tail is therefore matched or has rejected it only
//                   because it was already matched, which is what makes
//                   the final matching maximal under terminate-and-
//                   freeze semantics.
#pragma once


#include "util/assertx.hpp"
#include "algo/edge_stage.hpp"
#include "algo/line_plan.hpp"
#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class MatchingAlgo {
 public:
  struct State : EdgePortState {
    bool matched = false;
    std::int64_t matched_edge = -1;      // global edge id, -1 if none
    std::int32_t accepted_port = -1;     // head-side acceptance this stage
  };
  using Output = std::int64_t;  // matched edge id or -1

  MatchingAlgo(std::size_t num_vertices, std::size_t num_edges,
               PartitionParams params)
      : stages_(num_vertices, num_edges, params) {}

  void init(Vertex v, const Graph& g, State& s) const {
    s.init_ports(g.degree(v));
  }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    VALOCAL_ENSURE(round <= stages_.schedule().total_rounds(),
                   "matching schedule exhausted with active vertices");
    const auto& self = view.self();
    const EdgeStages::At at = stages_.at(round);
    const auto my_iter = static_cast<std::int32_t>(at.iter);

    if (at.stage == EdgeStages::kPartition) {
      if (self.hset == 0)
        next.hset = partition_try_join(at.iter, view, stages_.threshold());
      next.accepted_port = -1;  // reset head bookkeeping per iteration
      return false;
    }

    if (self.hset == 0) {
      // Active vertex: accepts at most one proposal per assign phase.
      if (at.stage == EdgeStages::kCross && at.assign && !self.matched) {
        for (std::size_t i = 0; i < view.degree(); ++i) {
          const auto& nbr = view.neighbor_state(i);
          if (nbr.hset != my_iter || nbr.matched ||
              !nbr.out_with_label(view.neighbor_port(i), at.index))
            continue;
          // Neighbors are sorted by ID, so the first hit is smallest.
          next.matched = true;
          next.matched_edge =
              static_cast<std::int64_t>(view.incident_edges()[i]);
          next.accepted_port = static_cast<std::int32_t>(i);
          break;
        }
      }
      return false;
    }

    if (self.hset != my_iter) return false;

    switch (at.stage) {
      case EdgeStages::kFlag:
        stages_.flag_round(my_iter, view, next);
        break;
      case EdgeStages::kLinePlan:
        line_plan_round(stages_.line_plan(), at.index, view, next,
                        intra_port);
        break;
      case EdgeStages::kSweep:
        // Intra sweep slot c: the (unique) intra edge of color c at
        // this vertex joins if both endpoints were unmatched.
        if (self.matched) break;
        for (std::size_t i = 0; i < view.degree(); ++i) {
          if (!self.in_slot(i, at.index) || view.neighbor_state(i).matched)
            continue;
          next.matched = true;
          next.matched_edge =
              static_cast<std::int64_t>(view.incident_edges()[i]);
          break;
        }
        break;
      default:
        // Cross stage, tail side: learn whether the label-j head
        // accepted us.
        if (at.assign || self.matched) break;
        for (std::size_t i = 0; i < view.degree(); ++i) {
          if (!self.out_with_label(i, at.index)) continue;
          const auto& w = view.neighbor_state(i);
          const std::size_t port = view.neighbor_port(i);
          if (w.accepted_port == static_cast<std::int32_t>(port) &&
              w.matched_edge ==
                  static_cast<std::int64_t>(view.incident_edges()[i])) {
            next.matched = true;
            next.matched_edge = w.matched_edge;
          }
        }
    }
    return stages_.block_end(at);
  }

  Output output(Vertex, const State& s) const { return s.matched_edge; }

  /// Wake hint (WakeHinted): EdgeStages::next_wake — idle vertices
  /// park to their head duties, members through the line plan's no-op
  /// rounds.
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    return stages_.next_wake(round, s);
  }

  static constexpr bool uses_rng = false;

  // Trace phases (trace::PhaseTraced): the edge frame's stages, with
  // the sweep matching intra-set edges.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    return stages_.at(round).stage;
  }

 private:
  static constexpr const char* kTracePhases[] = {
      "partition", "flag", "line_plan", "intra_sweep", "cross"};

  EdgeStages stages_;
};

MatchingResult compute_matching(const Graph& g, PartitionParams params);

}  // namespace valocal
