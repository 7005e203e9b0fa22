#include "validate/reference.hpp"

#include <algorithm>

#include "graph/arboricity.hpp"
#include "util/assertx.hpp"

namespace valocal::ref {

std::vector<int> greedy_coloring(const Graph& g,
                                 const std::vector<Vertex>& order) {
  VALOCAL_REQUIRE(order.size() == g.num_vertices(),
                  "order must cover all vertices");
  std::vector<int> color(g.num_vertices(), -1);
  std::vector<char> taken;
  for (Vertex v : order) {
    taken.assign(g.degree(v) + 2, 0);
    for (Vertex u : g.neighbors(v)) {
      const int c = color[u];
      if (c >= 0 && static_cast<std::size_t>(c) < taken.size())
        taken[c] = 1;
    }
    int c = 0;
    while (taken[c]) ++c;
    color[v] = c;
  }
  return color;
}

std::vector<int> degeneracy_coloring(const Graph& g) {
  auto order = degeneracy_order(g);
  std::reverse(order.begin(), order.end());
  return greedy_coloring(g, order);
}

std::vector<bool> greedy_mis(const Graph& g) {
  std::vector<bool> in_set(g.num_vertices(), false);
  std::vector<char> blocked(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (blocked[v]) continue;
    in_set[v] = true;
    for (Vertex u : g.neighbors(v)) blocked[u] = 1;
  }
  return in_set;
}

std::vector<bool> greedy_matching(const Graph& g) {
  std::vector<bool> in_matching(g.num_edges(), false);
  std::vector<char> matched(g.num_vertices(), 0);
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Vertex u = ix.edge_u(e), v = ix.edge_v(e);
    if (matched[u] || matched[v]) continue;
    in_matching[e] = true;
    matched[u] = matched[v] = 1;
  }
  return in_matching;
}

std::vector<int> greedy_edge_coloring(const Graph& g) {
  std::vector<int> color(g.num_edges(), -1);
  const std::size_t palette = 2 * std::max<std::size_t>(g.max_degree(), 1);
  std::vector<char> taken;
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    taken.assign(palette, 0);
    for (Vertex endpoint : {ix.edge_u(e), ix.edge_v(e)})
      for (EdgeId f : ix.incident_edges(endpoint))
        if (color[f] >= 0) taken[color[f]] = 1;
    int c = 0;
    while (taken[c]) ++c;
    color[e] = c;
  }
  return color;
}

}  // namespace valocal::ref
