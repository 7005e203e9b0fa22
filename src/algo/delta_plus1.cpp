#include "algo/delta_plus1.hpp"

#include <algorithm>
#include <vector>

#include "util/assertx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

DeltaPlusOneAlgo::DeltaPlusOneAlgo(std::size_t num_vertices,
                                   std::size_t max_degree,
                                   PartitionParams params)
    : params_(params),
      max_degree_(max_degree),
      plan_(std::make_shared<DegPlusOnePlan>(
          std::max<std::uint64_t>(1, num_vertices), params.threshold())),
      schedule_(num_vertices, params.epsilon,
                plan_->num_rounds() + params.threshold() + 1) {
  params_.check();
}

ColoringResult extend_delta_plus1(const Graph& g, PartitionParams params,
                                  std::vector<std::int32_t> partial) {
  VALOCAL_TRACE_PHASE("extend_delta_plus1");
  VALOCAL_REQUIRE(partial.size() == g.num_vertices(),
                  "partial solution must cover all vertices");
  for (auto c : partial)
    VALOCAL_REQUIRE(c < static_cast<std::int32_t>(g.max_degree() + 1),
                    "partial colors must fit the Delta+1 palette");
  g.for_each_edge([&](Vertex u, Vertex v) {
    VALOCAL_REQUIRE(partial[u] < 0 || partial[u] != partial[v],
                    "partial solution must be proper");
  });
  DeltaPlusOneAlgo algo(g.num_vertices(), g.max_degree(), params);
  algo.set_partial_solution(std::move(partial));
  return run_coloring(g, algo);
}

ColoringResult compute_delta_plus1(const Graph& g,
                                   PartitionParams params) {
  DeltaPlusOneAlgo algo(g.num_vertices(), g.max_degree(), params);
  return run_coloring(g, algo);
}


VALOCAL_ALGO_SPEC(delta_plus1) {
  using namespace registry;
  AlgoSpec s = spec_base("delta_plus1", "delta_plus1",
                         Problem::kVertexColoring, /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(a log a + log* n)"},
                          {Measure::kWorstCase, "O(log n)"}},
                         "Cor 8.3 / T1.7");
  s.rows = {{.section = BenchSection::kTable1Star,
             .order = 0,
             .row = "T1.7 ours",
             .algo_label = "delta_plus1 (VA ~ a log a + log* n)"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "delta_plus1",
                            compute_delta_plus1(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
