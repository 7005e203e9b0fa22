#include "algo/general_partition.hpp"

#include <algorithm>

#include "algo/segmentation.hpp"
#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

GeneralPartitionAlgo::GeneralPartitionAlgo(std::size_t num_vertices,
                                           double epsilon)
    : epsilon_(epsilon),
      phase_len_(partition_round_bound(num_vertices, epsilon)) {
  VALOCAL_REQUIRE(epsilon > 0.0 && epsilon <= 2.0,
                  "General-Partition needs 0 < epsilon <= 2");
}

std::size_t GeneralPartitionAlgo::threshold_for_phase(
    std::size_t k) const {
  const PartitionParams params{
      .arboricity = std::size_t{1} << std::min<std::size_t>(k, 40),
      .epsilon = epsilon_};
  return params.threshold();
}

bool GeneralPartitionAlgo::step(Vertex, std::size_t round,
                                const RoundView<State>& view, State& next,
                                Xoshiro256&) const {
  const std::size_t phase = (round - 1) / phase_len_;
  const std::int32_t joined = partition_try_join(
      round, view, threshold_for_phase(phase));
  if (joined == 0) return false;
  next.hset = joined;
  return true;
}

GeneralPartitionResult compute_general_partition(const Graph& g,
                                                 double epsilon) {
  GeneralPartitionAlgo algo(g.num_vertices(), epsilon);
  auto run = run_local(g, algo);

  GeneralPartitionResult result;
  result.hset = std::move(run.outputs);
  std::size_t last_round = 0;
  for (auto h : result.hset) {
    result.num_sets =
        std::max(result.num_sets, static_cast<std::size_t>(h));
    last_round = std::max(last_round, static_cast<std::size_t>(h));
  }
  const std::size_t last_phase =
      last_round == 0 ? 0 : (last_round - 1) / algo.phase_length();
  result.effective_threshold = algo.threshold_for_phase(last_phase);
  result.arboricity_estimate = std::size_t{1}
                               << std::min<std::size_t>(last_phase, 40);
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(general_partition) {
  using namespace registry;
  AlgoSpec s = spec_base("general_partition", "general partition",
                         Problem::kHPartition, /*deterministic=*/true,
                         {Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(1)"},
                          {Measure::kWorstCase, "O(log n log a)"}},
                         "Sec 6.1 / [8]");
  s.run = [](const Graph& g, const AlgoParams& p) {
    const GeneralPartitionResult r = compute_general_partition(g, p.epsilon);
    SolveOutcome o;
    o.valid = is_h_partition(g, r.hset, r.effective_threshold);
    o.labels = to_labels(r.hset);
    o.metrics = r.metrics;
    std::ostringstream ss;
    ss << "general partition: " << r.num_sets << " H-sets, estimate a~"
       << r.arboricity_estimate << ", valid=" << yes_no(o.valid);
    o.summary = ss.str();
    return o;
  };
  return s;
}

}  // namespace valocal
