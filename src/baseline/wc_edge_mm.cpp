#include "baseline/wc_edge_mm.hpp"

#include <algorithm>

#include "algo/line_plan.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

WcEdgeColoringAlgo::WcEdgeColoringAlgo(std::size_t num_edges,
                                       std::size_t max_degree)
    : plan_(max_degree <= 1
                ? nullptr
                : std::make_shared<DegPlusOnePlan>(
                      std::max<std::size_t>(1, num_edges),
                      edge_palette_bound(max_degree) - 1)) {}

void WcEdgeColoringAlgo::init(Vertex v, const Graph& g, State& s) const {
  const auto edges = g.incident_edges(v);
  s.lcolor.assign(edges.size(), 0);
  // At Delta <= 1 the line graph is edgeless: every edge keeps color 0.
  if (!plan_) return;
  for (std::size_t i = 0; i < edges.size(); ++i)
    s.lcolor[i] = static_cast<std::int64_t>(edges[i]);
}

bool WcEdgeColoringAlgo::step(Vertex, std::size_t round,
                              const RoundView<State>& view, State& next,
                              Xoshiro256&) const {
  const std::size_t total = plan_ ? plan_->num_rounds() : 0;
  if (total == 0) return true;
  // Every port is a line vertex: the line graph of all of G.
  line_plan_round(*plan_, round - 1, view, next,
                  [](const State&, std::size_t) { return true; });
  return round >= total;  // run to completion: everyone stops together
}

EdgeColoringResult compute_wc_edge_coloring(const Graph& g) {
  const WcEdgeColoringAlgo algo(g.num_edges(), g.max_degree());
  return run_edge_coloring(g, algo);
}

MatchingResult compute_wc_matching(const Graph& g) {
  // Phase 1: the run-to-completion edge coloring (reusing its rounds);
  // phase 2: sweep the color classes centrally but charge the sweep
  // rounds to every vertex — the classical synchronized reduction.
  EdgeColoringResult ec = compute_wc_edge_coloring(g);

  MatchingResult result;
  result.in_matching.assign(g.num_edges(), false);
  std::vector<char> matched(g.num_vertices(), 0);
  const EdgeIndex ix = g.edge_index();
  for (std::size_t c = 0; c < ec.palette_bound; ++c) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (ec.color[e] != static_cast<int>(c)) continue;
      const Vertex u = ix.edge_u(e), v = ix.edge_v(e);
      if (matched[u] || matched[v]) continue;
      result.in_matching[e] = true;
      matched[u] = matched[v] = 1;
    }
  }
  result.metrics = std::move(ec.metrics);
  const auto sweep = static_cast<std::uint32_t>(ec.palette_bound);
  for (auto& r : result.metrics.rounds) r += sweep;
  for (std::size_t i = 0; i < sweep; ++i)
    result.metrics.active_per_round.push_back(g.num_vertices());
  // The sweep edits r(v) after run_local already summarized it —
  // refresh the one-pass rollup so the O(1) accessors stay exact.
  result.metrics.finalize(g);
  return result;
}


VALOCAL_ALGO_SPEC(wc_edge) {
  using namespace registry;
  AlgoSpec s = spec_base("wc_edge", "wc_edge_coloring (run to completion)",
                         Problem::kEdgeColoring, /*deterministic=*/true,
                         {},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(Delta + log* n)"}},
                         "T2.2 baseline");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 4,
             .row = "T2.2 (2D-1)-EC",
             .algo_label = "baseline (run to completion)",
             .check = "T2.2 baseline EC",
             .ratio_override = "1.0x",
             .small_sizes_only = true}};
  s.run = [](const Graph& g, const AlgoParams&) {
    return edge_coloring_outcome(g, "wc_edge_coloring (run to completion)",
                                 compute_wc_edge_coloring(g));
  };
  return s;
}

VALOCAL_ALGO_SPEC(wc_matching) {
  using namespace registry;
  AlgoSpec s = spec_base("wc_matching",
                         "wc_matching (run to completion)",
                         Problem::kMatching, /*deterministic=*/true, {},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(Delta + log* n)"}},
                         "T2.3 baseline");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 5,
             .row = "T2.3 MM",
             .algo_label = "baseline (run to completion)",
             .check = "T2.3 baseline MM",
             .ratio_override = "1.0x",
             .small_sizes_only = true},
            {.section = BenchSection::kCrossPaper,
             .order = 4,
             .row = "MM",
             .algo_label = "wc_matching (run to completion)",
             .check = "XP MM baseline",
             .small_sizes_only = true}};
  s.run = [](const Graph& g, const AlgoParams&) {
    return matching_outcome(g, "wc_matching", compute_wc_matching(g));
  };
  return s;
}

}  // namespace valocal
