#include "algo/mis.hpp"

#include <algorithm>

#include "registry/spec_util.hpp"

namespace valocal {

MisAlgo::MisAlgo(std::size_t num_vertices, PartitionParams params)
    : params_(params),
      plan_(std::make_shared<DegPlusOnePlan>(
          std::max<std::uint64_t>(1, num_vertices), params.threshold())),
      schedule_(num_vertices, params.epsilon,
                plan_->num_rounds() + params.threshold() + 1) {
  params_.check();
}

MisResult compute_mis(const Graph& g, PartitionParams params) {
  return run_mis(g, MisAlgo(g.num_vertices(), params), "mis");
}


VALOCAL_ALGO_SPEC(mis) {
  using namespace registry;
  AlgoSpec s = spec_base("mis", "MIS", Problem::kMis,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O~(a + log* n)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Cor 8.4 / T2.1");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 0,
             .row = "T2.1 MIS",
             .algo_label = "mis (Cor 8.4)",
             .check = "T2.1 MIS"},
            {.section = BenchSection::kTable2Families,
             .order = 0,
             .row = "MIS"},
            {.section = BenchSection::kCrossPaper,
             .order = 0,
             .row = "MIS",
             .algo_label = "mis (SPAA'18, det)",
             .check = "XP MIS 2018"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return mis_outcome(g, "MIS", compute_mis(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
