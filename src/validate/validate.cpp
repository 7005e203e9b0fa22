#include "validate/validate.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/arboricity.hpp"

namespace valocal {

bool is_proper_coloring(const Graph& g, const std::vector<int>& color) {
  if (color.size() != g.num_vertices()) return false;
  for (int c : color)
    if (c < 0) return false;
  bool proper = true;
  g.for_each_edge(
      [&](Vertex u, Vertex v) { proper = proper && color[u] != color[v]; });
  return proper;
}

std::size_t count_colors(const std::vector<int>& color) {
  std::unordered_set<int> used(color.begin(), color.end());
  return used.size();
}

bool is_proper_edge_coloring(const Graph& g,
                             const std::vector<int>& edge_color) {
  if (edge_color.size() != g.num_edges()) return false;
  for (int c : edge_color)
    if (c < 0) return false;
  const EdgeIndex ix = g.edge_index();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<int> seen;
    for (EdgeId e : ix.incident_edges(v))
      if (!seen.insert(edge_color[e]).second) return false;
  }
  return true;
}

bool is_mis(const Graph& g, const std::vector<bool>& in_set) {
  if (in_set.size() != g.num_vertices()) return false;
  // One pass over the adjacency, no edge ids: a member has no member
  // neighbor (independence), a non-member has one (maximality).
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const bool member_neighbor = std::any_of(
        nbrs.begin(), nbrs.end(), [&](Vertex u) { return in_set[u]; });
    if (member_neighbor == in_set[v]) return false;
  }
  return true;
}

bool is_maximal_matching(const Graph& g,
                         const std::vector<bool>& in_matching) {
  if (in_matching.size() != g.num_edges()) return false;
  const EdgeIndex ix = g.edge_index();
  std::vector<char> matched(g.num_vertices(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_matching[e]) continue;
    const Vertex u = ix.edge_u(e), v = ix.edge_v(e);
    if (matched[u] || matched[v]) return false;
    matched[u] = matched[v] = 1;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!in_matching[e] && !matched[ix.edge_u(e)] && !matched[ix.edge_v(e)])
      return false;  // addable edge: not maximal
  return true;
}

bool is_forest_decomposition(const Graph& g, const Orientation& orient,
                             const std::vector<int>& label,
                             std::size_t num_forests) {
  if (label.size() != g.num_edges()) return false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!orient.is_oriented(e)) return false;
    if (label[e] < 0 || static_cast<std::size_t>(label[e]) >= num_forests)
      return false;
  }
  if (!orient.is_acyclic()) return false;
  // Per-label out-degree <= 1: each vertex has at most one outgoing edge
  // with a given label, so each label class is a functional forest.
  const EdgeIndex ix = g.edge_index();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<int> out_labels;
    for (EdgeId e : ix.incident_edges(v)) {
      if (orient.tail(e) != v) continue;
      if (!out_labels.insert(label[e]).second) return false;
    }
  }
  return true;
}

bool is_h_partition(const Graph& g, const std::vector<int>& hset,
                    std::size_t bound) {
  if (hset.size() != g.num_vertices()) return false;
  for (int h : hset)
    if (h < 1) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::size_t later = 0;
    for (Vertex u : g.neighbors(v))
      if (hset[u] >= hset[v]) ++later;
    if (later > bound) return false;
  }
  return true;
}

std::size_t coloring_defect(const Graph& g,
                            const std::vector<int>& color) {
  std::size_t worst = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::size_t same = 0;
    for (Vertex u : g.neighbors(v))
      if (color[u] == color[v]) ++same;
    worst = std::max(worst, same);
  }
  return worst;
}

std::size_t coloring_arbdefect_ub(const Graph& g,
                                  const std::vector<int>& color) {
  // The graph of the monochromatic edges is the disjoint union of the
  // color classes' induced subgraphs, so its degeneracy is the largest
  // class degeneracy (degeneracy >= arboricity >= degeneracy/2).
  std::vector<Vertex> pairs;
  g.for_each_edge([&](Vertex u, Vertex v) {
    if (color[u] == color[v]) pairs.insert(pairs.end(), {u, v});
  });
  return degeneracy(
      Graph::from_source(g.num_vertices(), SpanEdgeSource(pairs)));
}

}  // namespace valocal
