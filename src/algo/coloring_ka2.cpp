#include "algo/coloring_ka2.hpp"

#include <algorithm>
#include <vector>

#include "algo/line_plan.hpp"
#include "util/assertx.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringKa2Algo::ColoringKa2Algo(std::size_t num_vertices,
                                 PartitionParams params, int k)
    : ColoringKa2Algo(num_vertices, params,
                      make_segments(num_vertices, params.epsilon,
                                    scheme_k(num_vertices, k)),
                      PaletteLayout::kBlocked) {}

ColoringKa2Algo::ColoringKa2Algo(std::size_t num_vertices,
                                 PartitionParams params,
                                 std::vector<Segment> segments,
                                 PaletteLayout layout)
    : params_(params), segments_(std::move(segments)) {
  params_.check();
  ladder_ = std::make_shared<ArbLinialLadder>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  steps_ = ladder_->num_steps();
  per_segment_ = steps_ > 0 ? ladder_->final_colors()
                            : std::max<std::uint64_t>(1, num_vertices);
  strides_ = PaletteStrides(layout, segments_.size(), per_segment_);

  // Region layout: per segment, a partition region then a ladder region
  // (ladder regions have max(1, S) rounds so degenerate tiny inputs
  // still get a terminating color-assignment round).
  const std::size_t lad = std::max<std::size_t>(1, steps_);
  std::vector<std::size_t> region_lengths;
  region_lengths.reserve(2 * segments_.size());
  for (const Segment& seg : segments_) {
    region_lengths.push_back(seg.partition_rounds);
    region_lengths.push_back(lad);
  }
  timeline_ = SegmentTimeline(region_lengths);

  // Trace phase names, one per region; the store must never reallocate
  // after the c_str() pointers are taken.
  phase_name_store_.reserve(2 * segments_.size());
  phase_names_.reserve(2 * segments_.size());
  for (const Segment& seg : segments_) {
    const std::string base = "seg" + std::to_string(seg.paper_index);
    phase_name_store_.push_back(base + ".partition");
    phase_name_store_.push_back(base + ".ladder");
  }
  for (const auto& name : phase_name_store_)
    phase_names_.push_back(name.c_str());
}

bool ColoringKa2Algo::step(Vertex v, std::size_t round,
                           const RoundView<State>& view, State& next,
                           Xoshiro256&) const {
  const auto& self = view.self();
  // Locate the region: 2 regions per segment.
  const std::size_t region = timeline_.locate(round);
  VALOCAL_ENSURE(region < timeline_.num_regions(),
                 "coloring_ka2 schedule exhausted with active vertices");
  const Segment& seg = segments_[region / 2];
  const std::size_t rel = round - timeline_.start(region);

  if (region % 2 == 0) {
    // Partition region of this segment.
    if (self.hset == 0) {
      const std::size_t partition_round = seg.first_hset + rel;
      next.hset = partition_try_join(partition_round, view,
                                     params_.threshold());
    }
    return false;
  }

  // Ladder region for this segment: participants are the vertices
  // whose H-set falls in the segment's range. The last step leaves the
  // segment-local color output() reads.
  const auto in_seg = [&](std::int32_t h) {
    return h >= static_cast<std::int32_t>(seg.first_hset) &&
           h <= static_cast<std::int32_t>(seg.last_hset);
  };
  if (!in_seg(self.hset)) return false;
  if (steps_ > 0)
    next.lad_color = arb_linial_round(
        *ladder_, rel, v, view, in_seg,
        [](const State& s) { return s.lad_color; });
  return rel + 1 == std::max<std::size_t>(1, steps_);
}

std::size_t ColoringKa2Algo::next_wake(Vertex, std::size_t round,
                                       const State& s) const {
  const std::size_t region = timeline_.locate(round);
  if (region >= timeline_.num_regions()) return round + 1;
  const Segment& seg = segments_[region / 2];
  if (region % 2 == 0) {
    // Partition region: joiners idle until this segment's ladder;
    // unsettled vertices must attempt a join every round (the decision
    // reads each round's fresh neighbor snapshot).
    return s.hset == 0 ? round + 1 : timeline_.start(region + 1);
  }
  // Ladder region: participants run every round (parent colors are
  // data-dependent); everyone else idles until the next region.
  const bool in_seg =
      s.hset >= static_cast<std::int32_t>(seg.first_hset) &&
      s.hset <= static_cast<std::int32_t>(seg.last_hset);
  return in_seg ? round + 1 : timeline_.start(region + 1);
}

ColoringResult compute_coloring_a2(const Graph& g,
                                   PartitionParams params) {
  return run_coloring(
      g, ColoringKa2Algo(g.num_vertices(), params,
                         two_phase_segments(g.num_vertices(),
                                            params.epsilon),
                         PaletteLayout::kInterleaved));
}

ColoringResult compute_coloring_ka2(const Graph& g,
                                    PartitionParams params, int k) {
  return run_coloring(g, ColoringKa2Algo(g.num_vertices(), params, k));
}


VALOCAL_ALGO_SPEC(a2) {
  using namespace registry;
  AlgoSpec s = spec_base("a2", "a2", Problem::kVertexColoring,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(loglog n)"},
                          {Measure::kWorstCase, "O(log n)"}},
                         "Thm 7.6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 7,
             .row = "Thm7.6 O(a^2)",
             .algo_label = "coloring_a2"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "a2",
                            compute_coloring_a2(g, p.partition()));
  };
  return s;
}

VALOCAL_ALGO_SPEC(ka2) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "ka2", "ka2", Problem::kVertexColoring, /*deterministic=*/true,
      {Param::kArboricity, Param::kEpsilon, Param::kK},
      {{Measure::kVertexAveraged, "O(log^(k) n + log* n)"},
       {Measure::kWorstCase, "O(log n)"}},
      "Sec 7.6 / T1.5-T1.6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 4,
             .row = "T1.5 O(ka^2), k=2",
             .algo_label = "coloring_ka2(k=2)",
             .k = 2},
            {.section = BenchSection::kTable1Adversarial,
             .order = 5,
             .row = "T1.5 O(ka^2), k=3",
             .algo_label = "coloring_ka2(k=3)",
             .k = 3},
            {.section = BenchSection::kTable1Adversarial,
             .order = 6,
             .row = "T1.6 O(a^2 log* n)",
             .algo_label = "coloring_ka2(k=rho)",
             .k = 0}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "ka2",
                            compute_coloring_ka2(g, p.partition(), p.k));
  };
  return s;
}

}  // namespace valocal
