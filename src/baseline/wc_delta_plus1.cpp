#include "baseline/wc_delta_plus1.hpp"

#include <algorithm>

#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringResult compute_wc_delta_plus1(const Graph& g) {
  return run_coloring(
      g, WorstCaseDeltaPlusOneAlgo(g.num_vertices(), g.max_degree()));
}


VALOCAL_ALGO_SPEC(wc_delta) {
  using namespace registry;
  AlgoSpec s = spec_base("wc_delta", "wc_delta_plus1 (run to completion)",
                         Problem::kVertexColoring, /*deterministic=*/true,
                         {},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase,
                           "O(Delta log Delta + log* n)"}},
                         "T1.7 baseline");
  s.rows = {{.section = BenchSection::kTable1Star,
             .order = 1,
             .row = "T1.7 baseline",
             .algo_label =
                 "wc_delta_plus1 (VA = WC ~ Delta log Delta)"}};
  s.run = [](const Graph& g, const AlgoParams&) {
    return coloring_outcome(g, "wc_delta_plus1 (run to completion)",
                            compute_wc_delta_plus1(g));
  };
  return s;
}

}  // namespace valocal
