// The segmentation scheme of Section 7.5.
//
// The vertex set is peeled into k segments, built in paper order
// i = k, k-1, ..., 1. Segment i consists of the H-sets produced by
// c * log^(i) n consecutive rounds of Procedure Partition (c = 2 /
// epsilon; log^(i) is the iterated logarithm), so the population still
// active when segment i finishes is O(n / log^(i-1) n). Each segment is
// then finished off by a segment-local coloring stage (algorithm C of
// the scheme) drawing from its own disjoint palette. The parameter k
// ranges over {2, ..., rho(n)} (Section 7.5's rho: the largest k with
// log^(k-1) n >= log* n).
//
// Sections 7.3 and 7.4 are the same scheme on two segments: the H-sets
// formed while the population decays to O(n / log n), then the rest.
//
// This header provides the shared segment geometry and palette layout;
// the two instantiations of the scheme are algo/coloring_ka2.hpp
// (Sections 7.3 and 7.6) and algo/coloring_ka.hpp (Sections 7.4 and
// 7.7).
#pragma once

#include <cstdint>
#include <vector>

namespace valocal {

struct Segment {
  int paper_index;             // i in the paper: k for the first segment
  std::size_t first_hset;      // global H-set indices covered (1-based,
  std::size_t last_hset;       //   inclusive)
  std::size_t partition_rounds;  // r_i = last_hset - first_hset + 1
};

/// Upper bound on the total Procedure-Partition rounds needed on an
/// n-vertex graph: log_{(2+eps)/2} n + 2.
std::size_t partition_round_bound(std::size_t n, double eps);

/// The segment geometry for a given k in [2, rho(n)]: segments in
/// execution order (paper index k first). Segment i gets
/// ceil((2/eps) * log^(i) n) partition rounds; the final segment
/// (paper index 1) is extended so the cumulative rounds reach
/// partition_round_bound(n, eps).
std::vector<Segment> make_segments(std::size_t n, double eps, int k);

/// Resolves the scheme parameter: k <= 0 selects rho(n), and k is
/// clamped into [2, rho(n)].
int scheme_k(std::size_t n, int k);

/// The two-segment geometry of Sections 7.3/7.4, in execution order:
/// the first t1 partition rounds, t1 the least t with
/// ((2+eps)/2)^t >= log n (the population still active is then
/// O(n / log n)), then the rest of partition_round_bound(n, eps). The
/// second segment is empty when t1 already reaches the bound.
std::vector<Segment> two_phase_segments(std::size_t n, double eps);

/// Which segment (index into the make_segments vector) owns H-set h.
std::size_t segment_of_hset(const std::vector<Segment>& segments,
                            std::size_t h);

/// How the segments' palettes share the run's palette, P being the
/// palette of one segment.
enum class PaletteLayout {
  kBlocked,      // Section 7.5: segment s colors s * P + c
  kInterleaved,  // Sections 7.3/7.4: the tag <c, s> is c * k + s
};

/// A layout reduced to two integers: segment s's color c lands on
/// c * color_stride + s * segment_stride.
struct PaletteStrides {
  std::uint64_t color_stride = 1;
  std::uint64_t segment_stride = 0;

  PaletteStrides() = default;
  PaletteStrides(PaletteLayout layout, std::size_t num_segments,
                 std::uint64_t per_segment)
      : color_stride(layout == PaletteLayout::kBlocked ? 1 : num_segments),
        segment_stride(layout == PaletteLayout::kBlocked ? per_segment
                                                         : 1) {}

  std::uint64_t color(std::size_t segment, std::uint64_t c) const {
    return c * color_stride + segment * segment_stride;
  }
};

/// Region timetable of a segmentation-scheme run: consecutive regions
/// of known lengths on the 1-based round axis (per segment, e.g. a
/// partition region then a coloring region). Shared by coloring_ka /
/// coloring_ka2 for region lookup in step(), trace phase attribution,
/// and — because every region's start round is known up front — the
/// engine's wake hints: a vertex with nothing to do until the next
/// region sleeps to start(region + 1).
class SegmentTimeline {
 public:
  SegmentTimeline() = default;
  explicit SegmentTimeline(const std::vector<std::size_t>& region_lengths);

  std::size_t num_regions() const {
    return start_.empty() ? 0 : start_.size() - 1;
  }
  /// First round of `region`; start(num_regions()) is the exhaustion
  /// sentinel (one past the final region's last round).
  std::size_t start(std::size_t region) const { return start_[region]; }
  /// Region containing `round` (rounds are 1-based); returns
  /// num_regions() when the timetable is exhausted.
  std::size_t locate(std::size_t round) const;

 private:
  std::vector<std::size_t> start_;  // region starts plus end sentinel
};

}  // namespace valocal
