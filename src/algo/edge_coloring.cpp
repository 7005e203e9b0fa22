#include "algo/edge_coloring.hpp"

#include "algo/line_plan.hpp"
#include "util/assertx.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

EdgeColoringAlgo::EdgeColoringAlgo(std::size_t num_vertices,
                                   std::size_t num_edges,
                                   PartitionParams params)
    : stages_(num_vertices, num_edges, params) {}

void EdgeColoringAlgo::init(Vertex v, const Graph& g, State& s) const {
  s.init_ports(g.degree(v));
  s.ecolor.assign(g.degree(v), -1);
}

bool EdgeColoringAlgo::step(Vertex, std::size_t round,
                            const RoundView<State>& view, State& next,
                            Xoshiro256&) const {
  VALOCAL_ENSURE(round <= stages_.schedule().total_rounds(),
                 "edge_coloring schedule exhausted with active vertices");
  const auto& self = view.self();
  const EdgeStages::At at = stages_.at(round);
  const auto my_iter = static_cast<std::int32_t>(at.iter);

  if (at.stage == EdgeStages::kPartition) {
    if (self.hset == 0)
      next.hset = partition_try_join(at.iter, view, stages_.threshold());
    return false;
  }

  if (self.hset == 0) {
    // Active vertex: acts as head in assign phases. next.ecolor holds
    // the colors already used at this head, the ones assigned earlier
    // this round included.
    if (at.stage == EdgeStages::kCross && at.assign) {
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == my_iter &&
            nbr.out_with_label(view.neighbor_port(i), at.index))
          next.ecolor[i] = smallest_free_color(next.ecolor, nbr.ecolor);
      }
    }
    return false;
  }

  if (self.hset != my_iter) return false;  // already-terminated track
  // (terminated vertices never reach step; this guards waiting sets)

  switch (at.stage) {
    case EdgeStages::kFlag:
      stages_.flag_round(my_iter, view, next);
      break;
    case EdgeStages::kLinePlan:
      line_plan_round(stages_.line_plan(), at.index, view, next, intra_port);
      break;
    case EdgeStages::kSweep:
      // Resolution sweep slot c: the unique intra edge with line-plan
      // color c at this vertex takes its FINAL color — the smallest one
      // free at both endpoints (so intra colors also dodge the cross
      // colors this vertex received as a head in earlier iterations).
      // Slot-c edges form a matching, and both endpoints compute the
      // identical pick from published state.
      for (std::size_t i = 0; i < view.degree(); ++i)
        if (self.in_slot(i, at.index))
          next.ecolor[i] =
              smallest_free_color(self.ecolor, view.neighbor_state(i).ecolor);
      break;
    default:
      // Cross stage, tail side: ingest the head's assignment for label j.
      if (at.assign) break;
      for (std::size_t i = 0; i < view.degree(); ++i) {
        if (!self.out_with_label(i, at.index)) continue;
        const auto& w = view.neighbor_state(i);
        const std::size_t port = view.neighbor_port(i);
        VALOCAL_ENSURE(w.ecolor[port] >= 0,
                       "head failed to assign a cross edge");
        next.ecolor[i] = w.ecolor[port];
      }
  }
  // Terminate at the end of the block.
  return stages_.block_end(at);
}

EdgeColoringResult compute_edge_coloring(const Graph& g,
                                         PartitionParams params) {
  const EdgeColoringAlgo algo(g.num_vertices(), g.num_edges(), params);
  return run_edge_coloring(g, algo);
}


VALOCAL_ALGO_SPEC(edge_coloring) {
  using namespace registry;
  AlgoSpec s = spec_base("edge_coloring", "edge coloring",
                         Problem::kEdgeColoring, /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O~(a + log* n)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Cor 8.6 / T2.2");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 2,
             .row = "T2.2 (2D-1)-EC",
             .algo_label = "edge_coloring (Cor 8.6)",
             .check = "T2.2 EC",
             .check_aux = "T2.2 palette"},
            {.section = BenchSection::kTable2Families,
             .order = 1,
             .row = "EC"}};
  s.max_threshold = EdgeStages::kMaxThreshold;
  s.run = [](const Graph& g, const AlgoParams& p) {
    return edge_coloring_outcome(g, "edge coloring",
                                 compute_edge_coloring(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
