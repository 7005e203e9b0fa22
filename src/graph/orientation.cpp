#include "graph/orientation.hpp"

#include <algorithm>
#include <limits>

namespace valocal {

std::size_t Orientation::out_degree(Vertex v) const {
  std::size_t d = 0;
  for (EdgeId e : edges_.incident_edges(v))
    if (is_oriented(e) && tail(e) == v) ++d;
  return d;
}

std::vector<Vertex> Orientation::parents(Vertex v) const {
  std::vector<Vertex> out;
  for (EdgeId e : edges_.incident_edges(v))
    if (is_oriented(e) && tail(e) == v) out.push_back(head(e));
  return out;
}

std::vector<Vertex> Orientation::children(Vertex v) const {
  std::vector<Vertex> out;
  for (EdgeId e : edges_.incident_edges(v))
    if (is_oriented(e) && head(e) == v) out.push_back(tail(e));
  return out;
}

std::size_t Orientation::max_out_degree() const {
  std::size_t best = 0;
  for (Vertex v = 0; v < graph_->num_vertices(); ++v)
    best = std::max(best, out_degree(v));
  return best;
}

namespace {

// Kahn topological sweep over the oriented sub-digraph; returns the
// longest path length, or SIZE_MAX if a directed cycle exists.
std::size_t longest_path_or_cycle(const Graph& g, const Orientation& o) {
  const std::size_t n = g.num_vertices();
  std::vector<std::size_t> indeg(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (o.is_oriented(e)) ++indeg[o.head(e)];

  std::vector<Vertex> queue;
  queue.reserve(n);
  for (Vertex v = 0; v < n; ++v)
    if (indeg[v] == 0) queue.push_back(v);

  std::vector<std::size_t> depth(n, 0);
  std::size_t processed = 0, longest = 0;
  const EdgeIndex ix = g.edge_index();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Vertex v = queue[i];
    ++processed;
    for (EdgeId e : ix.incident_edges(v)) {
      if (!o.is_oriented(e) || o.tail(e) != v) continue;
      const Vertex h = o.head(e);
      depth[h] = std::max(depth[h], depth[v] + 1);
      if (--indeg[h] == 0) queue.push_back(h);
    }
    longest = std::max(longest, depth[v]);
  }
  if (processed != n) return std::numeric_limits<std::size_t>::max();
  return longest;
}

}  // namespace

bool Orientation::is_acyclic() const {
  return longest_path_or_cycle(*graph_, *this) !=
         std::numeric_limits<std::size_t>::max();
}

std::size_t Orientation::length() const {
  return longest_path_or_cycle(*graph_, *this);
}

std::size_t Orientation::num_oriented() const {
  std::size_t c = 0;
  for (EdgeId e = 0; e < graph_->num_edges(); ++e)
    if (is_oriented(e)) ++c;
  return c;
}

}  // namespace valocal
