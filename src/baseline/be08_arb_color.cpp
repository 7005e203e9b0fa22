#include "baseline/be08_arb_color.hpp"

#include <algorithm>
#include <vector>

#include "algo/line_plan.hpp"
#include "algo/segmentation.hpp"
#include "util/assertx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

Be08ArbColorAlgo::Be08ArbColorAlgo(std::size_t num_vertices,
                                   PartitionParams params)
    : params_(params) {
  params_.check();
  ell_ = partition_round_bound(num_vertices, params_.epsilon);
  ladder_ = std::make_shared<ArbLinialLadder>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  ladder_steps_ = ladder_->num_steps();
  const std::uint64_t aux_palette =
      ladder_steps_ > 0 ? ladder_->final_colors()
                        : std::max<std::uint64_t>(1, num_vertices);
  kw_ = std::make_shared<KwReduction>(aux_palette, params_.threshold());
  kw_rounds_ = kw_->num_rounds();
  end_ = ell_ + ladder_steps_ + kw_rounds_ +
         ell_ * (params_.threshold() + 1) + 2;
}

bool Be08ArbColorAlgo::step(Vertex v, std::size_t round,
                            const RoundView<State>& view, State& next,
                            Xoshiro256&) const {
  const auto& self = view.self();
  const std::size_t a_bound = params_.threshold();

  if (round <= ell_) {
    if (self.hset == 0)
      next.hset = partition_try_join(round, view, a_bound);
  } else if (round <= ell_ + ladder_steps_) {
    // Global ladder over the (hset, ID) orientation.
    next.aux = arb_linial_round(
        *ladder_, round - ell_ - 1, v, view,
        [](std::int32_t) { return true; },
        [](const State& s) { return s.aux; });
  } else if (round <= ell_ + ladder_steps_ + kw_rounds_) {
    // KW within the own H-set only.
    next.aux = same_set_plan_round(*kw_, round - ell_ - ladder_steps_ - 1,
                                   view);
  } else if (self.pick < 0) {
    // Recoloring stage: -1 (no pick yet) while a parent is undecided.
    next.pick = recolor_pick(view, a_bound, [](std::int32_t) { return true; });
  }
  // Run to completion: nobody terminates before the schedule ends.
  if (round >= end_) {
    VALOCAL_ENSURE(next.pick >= 0 || self.pick >= 0,
                   "be08 schedule ended before every vertex picked");
    return true;
  }
  return false;
}

ColoringResult compute_be08_arb_color(const Graph& g,
                                      PartitionParams params) {
  return run_coloring(g, Be08ArbColorAlgo(g.num_vertices(), params));
}


VALOCAL_ALGO_SPEC(be08) {
  using namespace registry;
  AlgoSpec s = spec_base("be08", "be08 (run to completion)",
                         Problem::kVertexColoring, /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "[8] baseline / T1 row 6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 9,
             .row = "baseline [8] O(a)",
             .algo_label = "be08_arb_color (VA=WC)"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "be08 (run to completion)",
                            compute_be08_arb_color(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
