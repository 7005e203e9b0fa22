#include "algo/matching.hpp"

#include "registry/spec_util.hpp"

namespace valocal {

MatchingResult compute_matching(const Graph& g, PartitionParams params) {
  MatchingAlgo algo(g.num_vertices(), g.num_edges(), params);
  auto run = run_local(g, algo);

  MatchingResult result;
  result.in_matching.assign(g.num_edges(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (run.outputs[v] >= 0)
      result.in_matching[static_cast<std::size_t>(run.outputs[v])] = true;
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(matching) {
  using namespace registry;
  AlgoSpec s = spec_base("matching", "matching", Problem::kMatching,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O~(a + log* n)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Cor 8.8 / T2.3");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 3,
             .row = "T2.3 MM",
             .algo_label = "matching (Cor 8.8)",
             .check = "T2.3 MM"},
            {.section = BenchSection::kTable2Families,
             .order = 2,
             .row = "MM"},
            {.section = BenchSection::kCrossPaper,
             .order = 3,
             .row = "MM",
             .algo_label = "matching (SPAA'18, det)",
             .check = "XP MM 2018"}};
  s.max_threshold = EdgeStages::kMaxThreshold;
  s.run = [](const Graph& g, const AlgoParams& p) {
    return matching_outcome(g, "matching",
                            compute_matching(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
