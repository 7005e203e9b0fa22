#include "algo/coloring_ka.hpp"

#include <algorithm>
#include <vector>

#include "algo/line_plan.hpp"
#include "util/assertx.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringKaAlgo::ColoringKaAlgo(std::size_t num_vertices,
                               PartitionParams params, int k)
    : ColoringKaAlgo(num_vertices, params,
                     make_segments(num_vertices, params.epsilon,
                                   scheme_k(num_vertices, k)),
                     PaletteLayout::kBlocked) {}

ColoringKaAlgo::ColoringKaAlgo(std::size_t num_vertices,
                               PartitionParams params,
                               std::vector<Segment> segments,
                               PaletteLayout layout)
    : params_(params), segments_(std::move(segments)) {
  params_.check();
  plan_ = std::make_shared<DegPlusOnePlan>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  tcol_ = plan_->num_rounds();
  strides_ = PaletteStrides(layout, segments_.size(),
                            params_.threshold() + 1);

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
  const Segment& seg = segments_[region / 2];
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
  // the smallest free color of {0..A} and terminate.
  if (!in_seg(self.hset) || self.pick >= 0) return false;
  const std::int32_t pick =
      recolor_pick(view, params_.threshold(), in_seg);
  if (pick < 0) return false;
  next.pick = pick;
  return true;
}

std::size_t ColoringKaAlgo::next_wake(Vertex, std::size_t round,
                                      const State& s) const {
  const std::size_t region = timeline_.locate(round);
  if (region >= timeline_.num_regions()) return round + 1;
  const Segment& seg = segments_[region / 2];

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
  const std::size_t block_start = timeline_.start(region) + block_idx * block;
  const std::size_t hset_index = seg.first_hset + block_idx;

  if (s.hset == static_cast<std::int32_t>(hset_index)) {
    // In its own block: a vertex that just joined runs plan round 0;
    // after plan round pos - 1 it sleeps to the next round that can
    // change its color, or, past the plan, to this segment's recolor.
    if (pos == 0) return round + 1;
    const std::size_t t = plan_->next_active(pos - 1, s.aux);
    return t < tcol_ ? block_start + 1 + t : timeline_.start(region + 1);
  }
  if (s.hset != 0) {
    // Joined an earlier H-set of this segment: idle until recolor.
    return timeline_.start(region + 1);
  }
  // Unjoined: idle through the plan rounds, wake at the next
  // Procedure-Partition round — the next block of this segment, or the
  // next segment's blocks region once this one is exhausted.
  if (block_idx + 1 < seg.partition_rounds) return block_start + block;
  return timeline_.start(region + 2);
}

ColoringResult compute_coloring_oa(const Graph& g,
                                   PartitionParams params) {
  return run_coloring(
      g, ColoringKaAlgo(g.num_vertices(), params,
                        two_phase_segments(g.num_vertices(),
                                           params.epsilon),
                        PaletteLayout::kInterleaved));
}

ColoringResult compute_coloring_ka(const Graph& g, PartitionParams params,
                                   int k) {
  return run_coloring(g, ColoringKaAlgo(g.num_vertices(), params, k));
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
