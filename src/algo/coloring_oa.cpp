#include "algo/coloring_oa.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/line_plan.hpp"
#include "util/assertx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

namespace {

std::size_t phase1_rounds(std::size_t n, double eps) {
  if (n < 4) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(n))));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(loglog / decay)));
}

std::size_t total_rounds(std::size_t n, double eps) {
  if (n < 2) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n)) / decay)) +
         2;
}

}  // namespace

ColoringOaAlgo::ColoringOaAlgo(std::size_t num_vertices,
                               PartitionParams params)
    : params_(params) {
  params_.check();
  ell_ = total_rounds(num_vertices, params_.epsilon);
  t1_ = std::min(phase1_rounds(num_vertices, params_.epsilon), ell_);
  plan_ = std::make_shared<DegPlusOnePlan>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  tcol_ = plan_->num_rounds();
  const std::size_t levels = params_.threshold() + 1;
  recolor1_ = t1_ * levels + 2;
  recolor2_ = (ell_ - t1_) * levels + 2;
}

ColoringOaAlgo::Region ColoringOaAlgo::locate(std::size_t round) const {
  const std::size_t block = 1 + tcol_;
  std::size_t r = round - 1;  // 0-based

  const std::size_t phase1_blocks_end = t1_ * block;
  if (r < phase1_blocks_end) {
    const std::size_t i = r / block + 1;
    const std::size_t pos = r % block;
    if (pos == 0) return {0, 1, i, 0};
    return {1, 1, i, pos - 1};
  }
  r -= phase1_blocks_end;
  if (r < recolor1_) return {2, 1, r, 0};
  r -= recolor1_;

  const std::size_t phase2_blocks_end = (ell_ - t1_) * block;
  if (r < phase2_blocks_end) {
    const std::size_t i = t1_ + r / block + 1;
    const std::size_t pos = r % block;
    if (pos == 0) return {0, 2, i, 0};
    return {1, 2, i, pos - 1};
  }
  r -= phase2_blocks_end;
  VALOCAL_ENSURE(r < recolor2_,
                 "coloring_oa schedule exhausted with active vertices");
  return {2, 2, r, 0};
}

bool ColoringOaAlgo::in_phase(std::int32_t hset, int phase) const {
  if (hset <= 0) return false;
  const auto h = static_cast<std::size_t>(hset);
  return phase == 1 ? h <= t1_ : h > t1_;
}

std::size_t ColoringOaAlgo::block_start(std::size_t i) const {
  return (i - 1) * (1 + tcol_) + 1 + (i > t1_ ? recolor1_ : 0);
}

std::size_t ColoringOaAlgo::recolor_start(int phase) const {
  return phase == 1 ? t1_ * (1 + tcol_) + 1 : block_start(ell_ + 1);
}

std::size_t ColoringOaAlgo::next_wake(Vertex, std::size_t round,
                                      const State& s) const {
  const Region region = locate(round);
  std::size_t wake = round + 1;
  if (s.hset == 0) {
    // Next partition round; phase 1's recoloring stage is skipped.
    if (region.kind != 2)
      wake = block_start(region.index + 1);
    else if (region.phase == 1)
      wake = block_start(t1_ + 1);
  } else if (region.kind != 2) {
    const auto own = static_cast<std::size_t>(s.hset);
    const std::size_t recolor = recolor_start(in_phase(s.hset, 1) ? 1 : 2);
    if (region.index != own) {
      wake = recolor;  // plan done: idle until the recoloring stage
    } else if (region.kind == 1) {
      const std::size_t t = plan_->next_active(region.plan_round, s.aux);
      wake = t < tcol_ ? block_start(own) + 1 + t : recolor;
    }
  }
  return std::max(wake, round + 1);
}

bool ColoringOaAlgo::step(Vertex, std::size_t round,
                          const RoundView<State>& view, State& next,
                          Xoshiro256&) const {
  const Region region = locate(round);
  const auto& self = view.self();

  switch (region.kind) {
    case 0:  // partition round of iteration region.index
      if (self.hset == 0)
        next.hset = partition_try_join(region.index, view,
                                       params_.threshold());
      return false;
    case 1:  // plan round for H_{region.index}
      if (self.hset == static_cast<std::int32_t>(region.index))
        next.aux = same_set_plan_round(*plan_, region.plan_round, view);
      return false;
    case 2:
    default: {
      // Recoloring attempt, parents taken within this phase only; the
      // vertex terminates once it picks.
      if (!in_phase(self.hset, region.phase) || self.pick >= 0) return false;
      const std::int32_t pick = recolor_pick(
          view, params_.threshold(),
          [&](std::int32_t h) { return in_phase(h, region.phase); });
      if (pick < 0) return false;
      next.pick = pick;
      return true;
    }
  }
}

ColoringResult compute_coloring_oa(const Graph& g,
                                   PartitionParams params) {
  ColoringOaAlgo algo(g.num_vertices(), params);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(oa) {
  using namespace registry;
  AlgoSpec s = spec_base("oa", "oa", Problem::kVertexColoring,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O~(a loglog n)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Thm 7.9");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 8,
             .row = "Thm7.9 O(a)",
             .algo_label = "coloring_oa"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "oa",
                            compute_coloring_oa(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
