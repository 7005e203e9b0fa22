#include "algo/coloring_ka.hpp"

#include <algorithm>
#include <vector>

#include "algo/line_plan.hpp"
#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringKaAlgo::ColoringKaAlgo(std::size_t num_vertices,
                               PartitionParams params, int k)
    : params_(params) {
  params_.check();
  const int k_max = rho(std::max<std::size_t>(2, num_vertices));
  k_ = std::clamp(k <= 0 ? k_max : k, 2, std::max(2, k_max));
  segments_ = make_segments(num_vertices, params_.epsilon, k_);
  plan_ = std::make_shared<DegPlusOnePlan>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  tcol_ = plan_->num_rounds();

  const std::size_t block = 1 + tcol_;
  const std::size_t levels = params_.threshold() + 1;
  std::vector<std::size_t> region_lengths;
  region_lengths.reserve(2 * segments_.size());
  for (const Segment& seg : segments_) {
    region_lengths.push_back(seg.partition_rounds * block);
    region_lengths.push_back(seg.partition_rounds * levels + 2);
  }
  timeline_ = SegmentTimeline(region_lengths);

  // Trace phase names: the store must never reallocate after the
  // c_str() pointers are taken.
  phase_name_store_.reserve(3 * segments_.size());
  phase_names_.reserve(3 * segments_.size());
  for (const Segment& seg : segments_) {
    const std::string base = "seg" + std::to_string(seg.paper_index);
    phase_name_store_.push_back(base + ".partition");
    phase_name_store_.push_back(base + ".plan");
    phase_name_store_.push_back(base + ".recolor");
  }
  for (const auto& name : phase_name_store_)
    phase_names_.push_back(name.c_str());
}

bool ColoringKaAlgo::step(Vertex, std::size_t round,
                          const RoundView<State>& view, State& next,
                          Xoshiro256&) const {
  const auto& self = view.self();
  const std::size_t region = timeline_.locate(round);
  VALOCAL_ENSURE(region < timeline_.num_regions(),
                 "coloring_ka schedule exhausted with active vertices");
  const std::size_t seg_idx = region / 2;
  const Segment& seg = segments_[seg_idx];
  const std::size_t rel = round - timeline_.start(region);
  const auto in_seg = [&](std::int32_t h) {
    return h >= static_cast<std::int32_t>(seg.first_hset) &&
           h <= static_cast<std::int32_t>(seg.last_hset);
  };

  if (region % 2 == 0) {
    // Blocks region: (1 + tcol) rounds per H-set of the segment.
    const std::size_t block = 1 + tcol_;
    const std::size_t block_idx = rel / block;   // 0-based within segment
    const std::size_t pos = rel % block;
    const std::size_t hset_index = seg.first_hset + block_idx;
    if (pos == 0) {
      if (self.hset == 0)
        next.hset = partition_try_join(hset_index, view,
                                       params_.threshold());
      return false;
    }
    // Plan round pos-1 for H_{hset_index}.
    if (self.hset == static_cast<std::int32_t>(hset_index))
      next.aux = same_set_plan_round(*plan_, pos - 1, view);
    return false;
  }

  // Recolor region for this segment: wait for all same-segment parents
  // (later H-set, or same H-set with larger auxiliary color), then pick
  // the smallest free color of {0..A} and terminate with the segment's
  // palette offset.
  if (!in_seg(self.hset) || self.pick >= 0) return false;
  const std::size_t a_bound = params_.threshold();
  const std::int32_t pick = recolor_pick(view, a_bound, in_seg);
  if (pick < 0) return false;
  next.pick = pick;
  next.final_color = static_cast<std::int64_t>(
      seg_idx * (a_bound + 1) + static_cast<std::size_t>(pick));
  return true;
}

std::size_t ColoringKaAlgo::next_wake(Vertex, std::size_t round,
                                      const State& s) const {
  const std::size_t region = timeline_.locate(round);
  if (region >= timeline_.num_regions()) return round + 1;
  const std::size_t seg_idx = region / 2;
  const Segment& seg = segments_[seg_idx];

  if (region % 2 != 0) {
    // Recolor region. Participants poll their parents every round
    // (data-dependent); everyone else (unjoined survivors) idles until
    // the next segment's first partition round.
    const bool in_seg =
        s.hset >= static_cast<std::int32_t>(seg.first_hset) &&
        s.hset <= static_cast<std::int32_t>(seg.last_hset);
    return in_seg ? round + 1 : timeline_.start(region + 1);
  }

  // Blocks region: (1 + tcol) rounds per H-set of the segment.
  const std::size_t block = 1 + tcol_;
  const std::size_t rel = round - timeline_.start(region);
  const std::size_t block_idx = rel / block;
  const std::size_t pos = rel % block;
  const std::size_t hset_index = seg.first_hset + block_idx;

  if (s.hset == static_cast<std::int32_t>(hset_index)) {
    // Running (or just joined) the current block: plan rounds follow
    // until the block ends, then nothing until this segment recolors.
    return pos < tcol_ ? round + 1 : timeline_.start(region + 1);
  }
  if (s.hset != 0) {
    // Joined an earlier H-set of this segment: idle until recolor.
    return timeline_.start(region + 1);
  }
  // Unjoined: idle through the plan rounds, wake at the next
  // Procedure-Partition round — the next block of this segment, or the
  // next segment's blocks region once this one is exhausted.
  if (block_idx + 1 < seg.partition_rounds)
    return timeline_.start(region) + (block_idx + 1) * block;
  return timeline_.start(region + 2);
}

ColoringResult compute_coloring_ka(const Graph& g, PartitionParams params,
                                   int k) {
  VALOCAL_TRACE_PHASE("ka");
  ColoringKaAlgo algo(g.num_vertices(), params, k);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(ka) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "ka", "ka", Problem::kVertexColoring, /*deterministic=*/true,
      {Param::kArboricity, Param::kEpsilon, Param::kK},
      {{Measure::kVertexAveraged, "O~(a log^(k) n)"},
       {Measure::kWorstCase, "O(a log n)"}},
      "Sec 7.7 / T1.1-T1.2");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 0,
             .row = "T1.1 O(ka), k=2",
             .algo_label = "coloring_ka(k=2)",
             .k = 2},
            {.section = BenchSection::kTable1Adversarial,
             .order = 1,
             .row = "T1.1 O(ka), k=3",
             .algo_label = "coloring_ka(k=3)",
             .k = 3},
            {.section = BenchSection::kTable1Adversarial,
             .order = 2,
             .row = "T1.2 O(a log* n)",
             .algo_label = "coloring_ka(k=rho)",
             .k = 0}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "ka",
                            compute_coloring_ka(g, p.partition(), p.k));
  };
  return s;
}

}  // namespace valocal
