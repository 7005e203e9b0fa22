#include "algo/coloring_a2logn.hpp"

#include <algorithm>

#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringA2LogNAlgo::ColoringA2LogNAlgo(std::size_t num_vertices,
                                       PartitionParams params)
    : params_(params),
      family_(std::make_shared<CoverFreeFamily>(
          std::max<std::uint64_t>(1, num_vertices), params.threshold())) {
  params_.check();
}

bool ColoringA2LogNAlgo::step(Vertex v, std::size_t round,
                              const RoundView<State>& view, State& next,
                              Xoshiro256&) const {
  if (view.self().hset == 0) {
    next.hset = partition_try_join(round, view, params_.threshold());
    return false;  // color in the next round, once joiners are visible
  }
  // One round after joining H_i: parents are the still-active neighbors
  // (they will join later H-sets) and the simultaneous joiners with
  // larger IDs. Escape all of their ID-indexed sets.
  std::vector<std::uint64_t>& parent_ids =
      thread_scratch<ColoringA2LogNAlgo, std::uint64_t>();
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& nbr = view.neighbor_state(i);
    const Vertex u = view.neighbor(i);
    if (nbr.hset == 0 || (nbr.hset == view.self().hset && u > v))
      parent_ids.push_back(u);
  }
  next.color = static_cast<std::int64_t>(
      family_->pick_escaping(v, parent_ids));
  return true;
}

ColoringResult compute_coloring_a2logn(const Graph& g,
                                       PartitionParams params) {
  return run_coloring(g, ColoringA2LogNAlgo(g.num_vertices(), params));
}


VALOCAL_ALGO_SPEC(a2logn) {
  using namespace registry;
  AlgoSpec s = spec_base("a2logn", "a2logn", Problem::kVertexColoring,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(1)"},
                          {Measure::kWorstCase, "O(log n)"}},
                         "Thm 7.2 / T1.4");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 3,
             .row = "T1.4 O(a^2 log n)",
             .algo_label = "coloring_a2logn"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "a2logn",
                            compute_coloring_a2logn(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
