#include "algo/segmentation.hpp"

#include <algorithm>
#include <cmath>

#include "util/assertx.hpp"
#include "util/mathx.hpp"

namespace valocal {

namespace {

void check_epsilon(double eps) {
  VALOCAL_REQUIRE(eps > 0.0 && eps <= 2.0,
                  "Procedure Partition needs 0 < epsilon <= 2");
}

/// Partition rounds needed to shrink the active population below
/// n / log n: the least t with ((2+eps)/2)^t >= log n.
std::size_t phase1_rounds(std::size_t n, double eps) {
  if (n < 4) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(n))));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(loglog / decay)));
}

}  // namespace

std::size_t partition_round_bound(std::size_t n, double eps) {
  if (n < 2) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n)) / decay)) +
         2;
}

std::vector<Segment> make_segments(std::size_t n, double eps, int k) {
  VALOCAL_REQUIRE(k >= 2, "segmentation needs k >= 2");
  VALOCAL_REQUIRE(n >= 1, "segmentation needs n >= 1");
  check_epsilon(eps);
  const double c = 2.0 / eps;
  const std::size_t total = partition_round_bound(n, eps);

  std::vector<Segment> segments;
  std::size_t next_hset = 1;
  for (int i = k; i >= 1; --i) {
    std::size_t rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               c * static_cast<double>(ilog(i, std::max<std::size_t>(
                                                   2, n))))));
    if (i == 1) {
      // The last segment absorbs whatever is left of the budget, so the
      // cumulative rounds always cover the full partition.
      rounds = total > next_hset - 1 ? total - (next_hset - 1) : 1;
    }
    segments.push_back(Segment{i, next_hset, next_hset + rounds - 1,
                               rounds});
    next_hset += rounds;
  }
  return segments;
}

int scheme_k(std::size_t n, int k) {
  const int k_max = rho(std::max<std::size_t>(2, n));
  return std::clamp(k <= 0 ? k_max : k, 2, std::max(2, k_max));
}

std::vector<Segment> two_phase_segments(std::size_t n, double eps) {
  check_epsilon(eps);
  const std::size_t total = partition_round_bound(n, eps);
  const std::size_t t1 = std::min(phase1_rounds(n, eps), total);
  return {Segment{2, 1, t1, t1}, Segment{1, t1 + 1, total, total - t1}};
}

std::size_t segment_of_hset(const std::vector<Segment>& segments,
                            std::size_t h) {
  for (std::size_t s = 0; s < segments.size(); ++s)
    if (h >= segments[s].first_hset && h <= segments[s].last_hset)
      return s;
  VALOCAL_ENSURE(false, "H-set outside every segment");
  return 0;
}

SegmentTimeline::SegmentTimeline(
    const std::vector<std::size_t>& region_lengths) {
  start_.reserve(region_lengths.size() + 1);
  std::size_t start = 1;
  start_.push_back(start);
  for (const std::size_t len : region_lengths) {
    start += len;
    start_.push_back(start);
  }
}

std::size_t SegmentTimeline::locate(std::size_t round) const {
  const auto it =
      std::upper_bound(start_.begin(), start_.end(), round);
  return static_cast<std::size_t>(it - start_.begin()) - 1;
}

}  // namespace valocal
