// Maximal Matching with vertex-averaged complexity O~(a + log* n)
// (Corollaries 8.8 / 8.9).
//
// Extension framework instantiation. Iteration i, for the fresh H-set
// H_i:
//   flag round    — classify/label edges as in edge_coloring.hpp;
//   line plan     — (2A-1)-edge-color the intra-set edges (each color
//                   class is a matching);
//   intra sweep   — 2A-1 rounds: in slot c every still-unmatched
//                   intra-set edge of color c whose endpoints were both
//                   unmatched joins the matching (color classes are
//                   vertex-disjoint, so no races);
//   cross stage   — 2A sub-rounds, two per label j: every ACTIVE
//                   unmatched head w accepts the smallest-ID unmatched
//                   H_i tail whose label-j edge points at w; the tails
//                   then ingest the acceptance. Every out-neighbor of a
//                   tail is therefore matched or has rejected it only
//                   because it was already matched, which is what makes
//                   the final matching maximal under terminate-and-
//                   freeze semantics.
#pragma once

#include <memory>
#include <vector>

#include "util/assertx.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/line_plan.hpp"
#include "algo/extension.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace valocal {

class MatchingAlgo {
 public:
  struct State : PartitionState {
    std::vector<std::int64_t> lcolor;    // line-plan transient color
    std::vector<std::int8_t> kind;       // 0 ?, 1 intra, 2 out, 3 settled
    std::vector<std::int8_t> out_label;  // label of out edges, -1 else
    bool matched = false;
    std::int64_t matched_edge = -1;      // global edge id, -1 if none
    std::int32_t accepted_port = -1;     // head-side acceptance this stage
  };
  using Output = std::int64_t;  // matched edge id or -1

  MatchingAlgo(std::size_t num_vertices, std::size_t num_edges,
               PartitionParams params);

  void init(Vertex v, const Graph& g, State& s) const;

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    VALOCAL_ENSURE(round <= schedule_.total_rounds(),
                   "matching schedule exhausted with active vertices");
    const auto& self = view.self();
    const std::size_t iter = schedule_.iteration(round);
    const std::size_t pos = schedule_.position(round);
    const std::size_t t_line = plan_->num_rounds();
    const std::size_t sweep_len = 2 * params_.threshold() - 1;
    const auto my_iter = static_cast<std::int32_t>(iter);

    const std::size_t cross_begin = 2 + t_line + sweep_len;
    const bool in_cross = pos >= cross_begin;
    const std::size_t rel = in_cross ? pos - cross_begin : 0;
    const std::size_t label = rel / 2;
    const bool assign_phase = in_cross && rel % 2 == 0;
    const bool ingest_phase = in_cross && rel % 2 == 1;

    if (pos == 0) {
      if (self.hset == 0)
        next.hset = partition_try_join(iter, view, params_.threshold());
      next.accepted_port = -1;  // reset head bookkeeping per iteration
      return false;
    }

    if (self.hset == 0) {
      // Active vertex: accepts at most one proposal per assign phase.
      if (assign_phase && !self.matched) {
        std::int32_t best_port = -1;
        for (std::size_t i = 0; i < view.degree(); ++i) {
          const auto& nbr = view.neighbor_state(i);
          if (nbr.hset != my_iter || nbr.matched) continue;
          const std::size_t port = view.neighbor_port(i);
          if (nbr.kind[port] != 2 ||
              nbr.out_label[port] != static_cast<std::int8_t>(label))
            continue;
          // Neighbors are sorted by ID, so the first hit is smallest.
          best_port = static_cast<std::int32_t>(i);
          break;
        }
        if (best_port >= 0) {
          next.matched = true;
          next.matched_edge = static_cast<std::int64_t>(
              view.incident_edges()[best_port]);
          next.accepted_port = best_port;
        }
      }
      return false;
    }

    if (self.hset != my_iter) return false;

    if (pos == 1) {
      // Flag round (see edge_coloring.cpp).
      std::int8_t next_label = 0;
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == my_iter) {
          next.kind[i] = 1;
          next.lcolor[i] =
              static_cast<std::int64_t>(view.incident_edges()[i]);
        } else if (nbr.hset == 0) {
          next.kind[i] = 2;
          next.out_label[i] = next_label++;
        } else {
          next.kind[i] = 3;
        }
      }
      return false;
    }

    if (pos < 2 + t_line) {
      // Line-graph plan on the intra-set edges.
      line_plan_round(*plan_, pos - 2, view, next);
      return false;
    }

    if (pos < cross_begin) {
      // Intra sweep slot c: the (unique) intra edge of color c at this
      // vertex joins if both endpoints were unmatched.
      const std::size_t c = pos - 2 - t_line;
      if (!self.matched) {
        for (std::size_t i = 0; i < view.degree(); ++i) {
          if (self.kind[i] != 1 ||
              self.lcolor[i] != static_cast<std::int64_t>(c))
            continue;
          const auto& w = view.neighbor_state(i);
          if (w.matched) continue;
          next.matched = true;
          next.matched_edge =
              static_cast<std::int64_t>(view.incident_edges()[i]);
          break;
        }
      }
      return false;
    }

    // Cross stage, tail side: learn whether the label-j head accepted
    // us.
    if (ingest_phase && !self.matched) {
      for (std::size_t i = 0; i < view.degree(); ++i) {
        if (self.kind[i] != 2 ||
            self.out_label[i] != static_cast<std::int8_t>(label))
          continue;
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
    return pos == schedule_.sub_rounds;
  }

  Output output(Vertex, const State& s) const { return s.matched_edge; }

  static constexpr bool uses_rng = false;

  const CompositionSchedule& schedule() const { return schedule_; }
  std::size_t line_palette() const {
    return std::max<std::size_t>(1, 2 * params_.threshold() - 1);
  }

  // Trace phases (trace::PhaseTraced), mirroring the stage geometry
  // documented in the file comment.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    const std::size_t pos = schedule_.position(round);
    if (pos == 0) return 0;
    if (pos == 1) return 1;
    if (pos < 2 + plan_->num_rounds()) return 2;
    if (pos < 2 + plan_->num_rounds() + (2 * params_.threshold() - 1))
      return 3;
    return 4;
  }

 private:
  static constexpr const char* kTracePhases[] = {
      "partition", "flag", "line_plan", "intra_sweep", "cross"};

  PartitionParams params_;
  std::shared_ptr<const DegPlusOnePlan> plan_;  // on the line graph
  CompositionSchedule schedule_;
};

struct MatchingResult {
  std::vector<bool> in_matching;  // per edge
  Metrics metrics;
};

MatchingResult compute_matching(const Graph& g, PartitionParams params);

}  // namespace valocal
