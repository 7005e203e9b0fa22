#include "algo/forest_decomposition.hpp"

#include <algorithm>
#include <utility>

#include "util/assertx.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

namespace {

/// Lexicographic (hset, id) comparison: the head of every decomposition
/// edge is the larger endpoint under this order.
bool decomposition_less(std::int32_t hu, Vertex u, std::int32_t hv,
                        Vertex v) {
  return hu != hv ? hu < hv : u < v;
}

}  // namespace

ForestDecomposition assemble_forest_decomposition(
    const Graph& g, const std::vector<std::int32_t>& hset) {
  VALOCAL_REQUIRE(hset.size() == g.num_vertices(),
                  "hset must cover all vertices");

  ForestDecomposition fd{Orientation(g), std::vector<int>(g.num_edges(), -1),
                         0};
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Vertex u = ix.edge_u(e), v = ix.edge_v(e);
    VALOCAL_REQUIRE(hset[u] >= 1 && hset[v] >= 1,
                    "every vertex must belong to an H-set");
    const Vertex head =
        decomposition_less(hset[u], u, hset[v], v) ? v : u;
    fd.orientation.orient_towards(e, head);
  }

  // Each vertex labels its outgoing edges 1..out_degree (0-based here).
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    int next_label = 0;
    for (EdgeId e : ix.incident_edges(v)) {
      if (fd.orientation.tail(e) != v) continue;
      fd.label[e] = next_label++;
    }
    fd.num_forests = std::max(fd.num_forests,
                              static_cast<std::size_t>(next_label));
  }
  return fd;
}

ForestDecompositionResult compute_forest_decomposition(
    const Graph& g, PartitionParams params) {
  ForestDecompositionAlgo algo(params);
  auto run = run_local(g, algo);

  auto decomposition = assemble_forest_decomposition(g, run.outputs);
  return ForestDecompositionResult{std::move(run.outputs),
                                   std::move(decomposition),
                                   std::move(run.metrics)};
}


VALOCAL_ALGO_SPEC(forest_decomp) {
  using namespace registry;
  AlgoSpec s = spec_base("forest_decomp", "forests",
                         Problem::kForestDecomposition,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(1)"},
                          {Measure::kWorstCase, "O(log n)"}},
                         "Thm 7.1");
  s.run = [](const Graph& g, const AlgoParams& p) {
    const ForestDecompositionResult r =
        compute_forest_decomposition(g, p.partition());
    SolveOutcome o;
    o.valid = is_forest_decomposition(g, r.decomposition.orientation,
                                      r.decomposition.label,
                                      r.decomposition.num_forests);
    o.labels = to_labels(r.decomposition.label);
    o.metrics = r.metrics;
    std::ostringstream ss;
    ss << "forests: " << r.decomposition.num_forests
       << " valid=" << yes_no(o.valid);
    o.summary = ss.str();
    return o;
  };
  return s;
}

}  // namespace valocal
