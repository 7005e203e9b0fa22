#include "graph/arboricity.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assertx.hpp"
#include "util/mathx.hpp"

namespace valocal {

namespace {

struct PeelResult {
  std::size_t degeneracy = 0;
  std::vector<Vertex> order;
};

/// The classic peel-min-degree bucket scheme: O(n + m).
PeelResult peel(const Graph& g) {
  const std::size_t n = g.num_vertices();
  PeelResult result;
  result.order.reserve(n);
  if (n == 0) return result;

  std::vector<std::size_t> deg(n);
  std::size_t max_deg = 0;
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }

  // Bucket queue over residual degrees (O(n + m) total).
  std::vector<std::vector<Vertex>> buckets(max_deg + 1);
  for (Vertex v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<char> removed(n, 0);

  std::size_t cursor = 0;
  for (std::size_t step = 0; step < n; ++step) {
    while (cursor > 0 && !buckets[cursor - 1].empty()) --cursor;
    while (buckets[cursor].empty()) ++cursor;
    const Vertex v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v]) {
      --step;
      continue;
    }
    if (deg[v] != cursor) {
      // Stale bucket entry; reinsert at the true degree.
      buckets[deg[v]].push_back(v);
      --step;
      continue;
    }
    removed[v] = 1;
    result.order.push_back(v);
    result.degeneracy = std::max(result.degeneracy, deg[v]);
    for (Vertex u : g.neighbors(v))
      if (!removed[u]) buckets[--deg[u]].push_back(u);
  }
  return result;
}

/// H_t = G[S_t], S_t = {v : deg(v) >= t}.
Graph hub_subgraph(const Graph& g, std::size_t t) {
  std::vector<Vertex> members;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) >= t) members.push_back(v);
  return Graph::induced(g, members);
}

}  // namespace

detail::DegeneracySearch detail::degeneracy_search(const Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n == 0) return {0, DegeneracyPath::kFullPeel};

  // at_least[k] = |S_k|, the number of vertices of degree >= k.
  std::vector<std::size_t> at_least(g.max_degree() + 1, 0);
  for (Vertex v = 0; v < n; ++v) ++at_least[g.degree(v)];
  for (std::size_t k = g.max_degree(); k-- > 0;)
    at_least[k] += at_least[k + 1];

  // A d-core has at least d + 1 vertices, each of degree >= d, so the
  // degeneracy is at most hi; every vertex has at most degeneracy
  // later neighbors in a peel order, so m <= degeneracy * n.
  std::size_t hi = g.max_degree();
  while (at_least[hi] < hi + 1) --hi;
  const auto lo = static_cast<std::size_t>(ceil_div(g.num_edges(), n));
  const auto small = [&](std::size_t t) { return 8 * at_least[t] <= n; };

  // degeneracy(G[S_t]) <= degeneracy(G) for every t, with equality when
  // degeneracy(G) >= t: the top core's vertices all have degree >= t.
  std::size_t bound = lo;
  if (small(hi)) {
    const std::size_t core = peel(hub_subgraph(g, hi)).degeneracy;
    if (core >= hi) return {core, DegeneracyPath::kHubCore};
    bound = std::max(bound, core);
  }
  if (small(bound))
    return {peel(hub_subgraph(g, bound)).degeneracy,
            DegeneracyPath::kRestricted};
  return {peel(g).degeneracy, DegeneracyPath::kFullPeel};
}

std::size_t degeneracy(const Graph& g) {
  return detail::degeneracy_search(g).value;
}

std::vector<Vertex> degeneracy_order(const Graph& g) {
  return peel(g).order;
}

std::size_t nash_williams_lb(const Graph& g) {
  if (g.num_edges() == 0) return 0;
  VALOCAL_ENSURE(g.num_vertices() >= 2, "edges imply n >= 2");
  return static_cast<std::size_t>(
      ceil_div(g.num_edges(), g.num_vertices() - 1));
}

std::size_t arboricity_upper_bound(const Graph& g) {
  return std::max<std::size_t>(1, degeneracy(g));
}

}  // namespace valocal
