#include "algo/edge_stage.hpp"

#include <algorithm>

#include "util/scratch.hpp"

namespace valocal {

EdgeStages::EdgeStages(std::size_t num_vertices, std::size_t num_edges,
                       PartitionParams params)
    : params_(params),
      plan_(std::make_shared<DegPlusOnePlan>(
          std::max<std::uint64_t>(1, num_edges),
          std::max<std::size_t>(1, 2 * params.threshold() - 2))),
      schedule_(num_vertices, params.epsilon,
                1 + plan_->num_rounds() + (2 * params.threshold() - 1) +
                    2 * params.threshold()),
      cross_begin_(2 + plan_->num_rounds() + (2 * params.threshold() - 1)) {
  params_.check();
  VALOCAL_REQUIRE(params_.threshold() <= kMaxThreshold,
                  "edge labels are stored as int8: threshold too large");
}

std::int32_t smallest_free_color(std::span<const std::int32_t> a,
                                 std::span<const std::int32_t> b) {
  std::vector<char>& taken = thread_scratch<EdgeStages, char>();
  taken.assign(a.size() + b.size() + 1, 0);
  const auto mark = [&taken](std::int32_t c) {
    if (c >= 0 && static_cast<std::size_t>(c) < taken.size()) taken[c] = 1;
  };
  for (const std::int32_t c : a) mark(c);
  for (const std::int32_t c : b) mark(c);
  std::size_t pick = 0;
  while (taken[pick]) ++pick;
  return static_cast<std::int32_t>(pick);
}

}  // namespace valocal
