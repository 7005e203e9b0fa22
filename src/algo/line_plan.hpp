// The plan rounds every (D+1)-plan entry runs, and the one place a
// replacement plan (substitutions S2/S3) plugs in, plus the ladder
// round of the Arb-Linial entries:
//
//   graph_plan_round — one round of the plan on all of G, as the
//     run-to-completion wc_delta baseline and the arbdefective coloring
//     run it: every neighbor is a subgraph neighbor;
//   same_set_plan_round — one round of an auxiliary (A+1)-coloring plan
//     on G(H_i), as delta_plus1, mis, ka, oa and the be08 baseline run
//     it: a vertex's subgraph neighbors are the neighbors in its own
//     H-set, their colors the published `aux`;
//   line_plan_round — one round of the (D+1)-plan on the line graph, as
//     edge coloring and maximal matching run it on G(H_i)
//     (Corollaries 8.6-8.9) and the run-to-completion baselines on all
//     of G: each endpoint of a line-vertex edge {v, w} advances the
//     edge's line color from published per-port state, the standard
//     LOCAL line-graph simulation. The edge's line neighbors are v's
//     other line ports plus w's;
//   arb_linial_round — one step of the Arb-Linial ladder over the
//     (hset, ID) forest orientation, as a2/ka2 run it on a segment and
//     the be08 baseline on all of G.
//
// Each plan round gathers neighbor colors (into thread_scratch) only
// in rounds whose plan step reads them (reads_neighbors) and merely
// counts them otherwise, so the plan's degree-bound check still sees
// the true degree on every step.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/arb_linial.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "sim/network.hpp"
#include "util/scratch.hpp"

namespace valocal {

struct GraphPlanScratch;  // thread_scratch owner tags
struct SameSetPlanScratch;
struct LinePlanScratch;
struct LadderScratch;

/// Plan round t for the stepping vertex on all of G; returns its new
/// color. A vertex's color, and each neighbor's, is color_of(state).
template <class State, class ColorOf>
std::uint64_t graph_plan_round(const DegPlusOnePlan& plan, std::size_t t,
                               const RoundView<State>& view,
                               ColorOf color_of) {
  const std::uint64_t own = color_of(view.self());
  if (plan.reads_neighbors(t, own)) {
    std::vector<std::uint64_t>& nbrs =
        thread_scratch<GraphPlanScratch, std::uint64_t>();
    for (std::size_t i = 0; i < view.degree(); ++i)
      nbrs.push_back(color_of(view.neighbor_state(i)));
    return plan.advance(t, own, nbrs);
  }
  return plan.advance_unread(t, own, view.degree());
}

/// Plan round t for the stepping vertex on G(H_i); returns its new
/// auxiliary color. State carries `hset` and `aux`. Plan is
/// DegPlusOnePlan or a bare KwReduction: anything with advance,
/// advance_unread and reads_neighbors.
template <class Plan, class State>
std::uint64_t same_set_plan_round(const Plan& plan, std::size_t t,
                                  const RoundView<State>& view) {
  const State& self = view.self();
  if (plan.reads_neighbors(t, self.aux)) {
    std::vector<std::uint64_t>& nbrs =
        thread_scratch<SameSetPlanScratch, std::uint64_t>();
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const State& nbr = view.neighbor_state(i);
      if (nbr.hset == self.hset) nbrs.push_back(nbr.aux);
    }
    return plan.advance(t, self.aux, nbrs);
  }
  std::size_t same_set = 0;
  for (std::size_t i = 0; i < view.degree(); ++i)
    if (view.neighbor_state(i).hset == self.hset) ++same_set;
  return plan.advance_unread(t, self.aux, same_set);
}

/// Arb-Linial ladder step t for the stepping vertex v; returns its new
/// color. Its parents are the neighbors whose H-set in_scope accepts
/// and that lie in a later H-set, or in v's own with a larger ID: at
/// most A of them by the H-partition property. A vertex's color, and
/// each neighbor's, is color_of(state).
template <class State, class InScope, class ColorOf>
std::uint64_t arb_linial_round(const ArbLinialLadder& ladder,
                               std::size_t t, Vertex v,
                               const RoundView<State>& view,
                               InScope in_scope, ColorOf color_of) {
  const State& self = view.self();
  std::vector<std::uint64_t>& parents =
      thread_scratch<LadderScratch, std::uint64_t>();
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const State& nbr = view.neighbor_state(i);
    if (!in_scope(nbr.hset)) continue;
    if (nbr.hset > self.hset ||
        (nbr.hset == self.hset && view.neighbor(i) > v))
      parents.push_back(color_of(nbr));
  }
  return ladder.apply_step(t, color_of(self), parents);
}

/// Plan round t over every line port of the stepping vertex: the ports
/// j of a state s with is_line(s, j). State carries a per-port `lcolor`
/// vector.
template <class State, class IsLine>
void line_plan_round(const DegPlusOnePlan& plan, std::size_t t,
                     const RoundView<State>& view, State& next,
                     IsLine is_line) {
  const State& self = view.self();
  // Branch-free: line and other ports interleave, so a branch on each
  // port mispredicts (the count runs once per port on unread rounds).
  const auto line_ports = [&](const State& s) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < s.lcolor.size(); ++j)
      count += is_line(s, j) ? 1 : 0;
    return count;
  };
  const std::size_t own_line = line_ports(self);
  for (std::size_t i = 0; i < view.degree(); ++i) {
    if (!is_line(self, i)) continue;
    const auto own = static_cast<std::uint64_t>(self.lcolor[i]);
    const State& w = view.neighbor_state(i);
    const std::size_t port = view.neighbor_port(i);
    std::uint64_t color;
    if (plan.reads_neighbors(t, own)) {
      std::vector<std::uint64_t>& line_nbrs =
          thread_scratch<LinePlanScratch, std::uint64_t>();
      for (std::size_t j = 0; j < view.degree(); ++j)
        if (j != i && is_line(self, j))
          line_nbrs.push_back(static_cast<std::uint64_t>(self.lcolor[j]));
      for (std::size_t j = 0; j < w.lcolor.size(); ++j)
        if (j != port && is_line(w, j))
          line_nbrs.push_back(static_cast<std::uint64_t>(w.lcolor[j]));
      color = plan.advance(t, own, line_nbrs);
    } else {
      const std::size_t far = line_ports(w) - (is_line(w, port) ? 1 : 0);
      color = plan.advance_unread(t, own, own_line - 1 + far);
    }
    next.lcolor[i] = static_cast<std::int64_t>(color);
  }
}

}  // namespace valocal
