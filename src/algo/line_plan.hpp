// One round of the (D+1)-coloring plan on the line graph of G(H_i), as
// edge coloring and maximal matching run it (Corollaries 8.6-8.9): each
// endpoint of an intra-set edge {v, w} advances the edge's line color
// from published per-port state, the standard LOCAL line-graph
// simulation. The edge's line neighbors are v's other intra-set ports
// plus w's. They are gathered only in rounds whose plan step reads them
// (DegPlusOnePlan::reads_neighbors) and merely counted otherwise, so the
// plan's degree-bound check still sees the true line degree on every
// step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/deg_plus_one_plan.hpp"
#include "sim/network.hpp"
#include "util/scratch.hpp"

namespace valocal {

struct LinePlanScratch;  // thread_scratch owner tag

/// Plan round t over every intra-set port (kind 1) of the stepping
/// vertex. State carries per-port `kind` and `lcolor` vectors.
template <class State>
void line_plan_round(const DegPlusOnePlan& plan, std::size_t t,
                     const RoundView<State>& view, State& next) {
  const State& self = view.self();
  const auto intra_ports = [](const State& s) {
    return static_cast<std::size_t>(
        std::count(s.kind.begin(), s.kind.end(), std::int8_t{1}));
  };
  const std::size_t own_intra = intra_ports(self);
  for (std::size_t i = 0; i < view.degree(); ++i) {
    if (self.kind[i] != 1) continue;
    const auto own = static_cast<std::uint64_t>(self.lcolor[i]);
    const State& w = view.neighbor_state(i);
    const std::size_t port = view.neighbor_port(i);
    std::uint64_t color;
    if (plan.reads_neighbors(t, own)) {
      std::vector<std::uint64_t>& line_nbrs =
          thread_scratch<LinePlanScratch, std::uint64_t>();
      for (std::size_t j = 0; j < view.degree(); ++j)
        if (j != i && self.kind[j] == 1)
          line_nbrs.push_back(static_cast<std::uint64_t>(self.lcolor[j]));
      for (std::size_t j = 0; j < w.kind.size(); ++j)
        if (j != port && w.kind[j] == 1)
          line_nbrs.push_back(static_cast<std::uint64_t>(w.lcolor[j]));
      color = plan.advance(t, own, line_nbrs);
    } else {
      const std::size_t far = intra_ports(w) - (w.kind[port] == 1 ? 1 : 0);
      color = plan.advance_unread(t, own, own_intra - 1 + far);
    }
    next.lcolor[i] = static_cast<std::int64_t>(color);
  }
}

}  // namespace valocal
