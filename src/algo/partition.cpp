#include "algo/partition.hpp"

#include <algorithm>
#include "registry/spec_util.hpp"

namespace valocal {

HPartitionResult compute_h_partition(const Graph& g,
                                     PartitionParams params) {
  PartitionAlgo algo(params);
  auto run = run_local(g, algo);

  HPartitionResult result;
  result.hset = std::move(run.outputs);
  result.threshold = params.threshold();
  for (auto h : result.hset)
    result.num_sets =
        std::max(result.num_sets, static_cast<std::size_t>(h));
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(partition) {
  using namespace registry;
  AlgoSpec s = spec_base("partition", "partition", Problem::kHPartition,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(1)"},
                          {Measure::kWorstCase, "Theta(log n)"}},
                         "Thm 6.3");
  s.run = [](const Graph& g, const AlgoParams& p) {
    const HPartitionResult r = compute_h_partition(g, p.partition());
    SolveOutcome o;
    o.valid = is_h_partition(g, r.hset, r.threshold);
    o.labels = to_labels(r.hset);
    o.metrics = r.metrics;
    std::ostringstream ss;
    ss << "partition: " << r.num_sets
       << " H-sets, valid=" << yes_no(o.valid);
    o.summary = ss.str();
    return o;
  };
  return s;
}

}  // namespace valocal
