#include "algo/deg_plus_one_plan.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace valocal {

DegPlusOnePlan::DegPlusOnePlan(std::uint64_t num_ids,
                               std::size_t degree_bound)
    : degree_bound_(std::max<std::size_t>(1, degree_bound)),
      ladder_(std::max<std::uint64_t>(1, num_ids), degree_bound_),
      kw_(ladder_.final_colors(), degree_bound_) {}

std::uint64_t DegPlusOnePlan::advance(
    std::size_t t, std::uint64_t own,
    std::span<const std::uint64_t> neighbors) const {
  VALOCAL_REQUIRE(t < num_rounds(), "plan round out of range");
  VALOCAL_REQUIRE(neighbors.size() <= degree_bound_,
                  "degree bound violated in DegPlusOnePlan");
  if (t < ladder_.num_steps()) return ladder_.apply_step(t, own, neighbors);
  return kw_.advance(t - ladder_.num_steps(), own, neighbors);
}

std::uint64_t DegPlusOnePlan::advance_unread(
    std::size_t t, std::uint64_t own, std::size_t num_neighbors) const {
  VALOCAL_REQUIRE(num_neighbors <= degree_bound_,
                  "degree bound violated in DegPlusOnePlan");
  VALOCAL_REQUIRE(!reads_neighbors(t, own),
                  "this plan round reads the neighbor colors");
  return kw_.advance(t - ladder_.num_steps(), own, {});
}

std::size_t DegPlusOnePlan::next_active(std::size_t t,
                                        std::uint64_t color) const {
  const std::size_t ladder = ladder_.num_steps();
  if (t + 1 < ladder) return t + 1;
  return ladder + kw_.first_active(t + 1 - ladder, color);
}

bool DegPlusOnePlan::reads_neighbors(std::size_t t,
                                     std::uint64_t color) const {
  VALOCAL_REQUIRE(t < num_rounds(), "plan round out of range");
  const std::size_t ladder = ladder_.num_steps();
  return t < ladder || kw_.reads_neighbors(t - ladder, color);
}

std::uint64_t DegPlusOnePlan::palette_after(std::size_t t) const {
  VALOCAL_REQUIRE(t < num_rounds(), "plan round out of range");
  const std::size_t ladder = ladder_.num_steps();
  if (t + 1 < ladder) return ladder_.colors_before(t + 1);
  return kw_.palette_before(t + 1 - ladder);
}

}  // namespace valocal
