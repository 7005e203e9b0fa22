#include "validate/local_checkers.hpp"

#include <unordered_set>

namespace valocal {

namespace {

LocalVerdict make_verdict(std::size_t n) {
  LocalVerdict verdict;
  verdict.accept.assign(n, true);
  return verdict;
}

void reject(LocalVerdict& verdict, Vertex v) {
  verdict.accept[v] = false;
  verdict.all_accept = false;
}

}  // namespace

LocalVerdict locally_check_coloring(const Graph& g,
                                    const std::vector<int>& color,
                                    std::size_t palette) {
  auto verdict = make_verdict(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (color[v] < 0 ||
        (palette != static_cast<std::size_t>(-1) &&
         static_cast<std::size_t>(color[v]) >= palette)) {
      reject(verdict, v);
      continue;
    }
    for (Vertex u : g.neighbors(v))
      if (color[u] == color[v]) {
        reject(verdict, v);
        break;
      }
  }
  return verdict;
}

LocalVerdict locally_check_mis(const Graph& g,
                               const std::vector<bool>& in_set) {
  auto verdict = make_verdict(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool neighbor_in = false;
    for (Vertex u : g.neighbors(v))
      if (in_set[u]) {
        neighbor_in = true;
        break;
      }
    if (in_set[v] ? neighbor_in : !neighbor_in) reject(verdict, v);
  }
  return verdict;
}

LocalVerdict locally_check_matching(const Graph& g,
                                    const std::vector<bool>& in_matching) {
  auto verdict = make_verdict(g.num_vertices());
  const EdgeIndex ix = g.edge_index();
  // One auxiliary exchange (still radius-1): every vertex publishes
  // whether it is matched.
  std::vector<char> matched(g.num_vertices(), 0);
  std::vector<char> overmatched(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    int count = 0;
    for (EdgeId e : ix.incident_edges(v))
      if (in_matching[e]) ++count;
    matched[v] = count >= 1;
    overmatched[v] = count > 1;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (overmatched[v]) {
      reject(verdict, v);
      continue;
    }
    if (matched[v]) continue;
    for (Vertex u : g.neighbors(v))
      if (!matched[u]) {
        reject(verdict, v);  // addable edge {v, u}
        break;
      }
  }
  return verdict;
}

LocalVerdict locally_check_edge_coloring(
    const Graph& g, const std::vector<int>& edge_color,
    std::size_t palette) {
  auto verdict = make_verdict(g.num_vertices());
  const EdgeIndex ix = g.edge_index();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<int> seen;
    for (EdgeId e : ix.incident_edges(v)) {
      const int c = edge_color[e];
      if (c < 0 ||
          (palette != static_cast<std::size_t>(-1) &&
           static_cast<std::size_t>(c) >= palette) ||
          !seen.insert(c).second) {
        reject(verdict, v);
        break;
      }
    }
  }
  return verdict;
}

LocalVerdict locally_check_forest_labels(const Graph& g,
                                         const Orientation& orient,
                                         const std::vector<int>& label,
                                         std::size_t num_forests) {
  auto verdict = make_verdict(g.num_vertices());
  const EdgeIndex ix = g.edge_index();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<int> out_labels;
    for (EdgeId e : ix.incident_edges(v)) {
      if (!orient.is_oriented(e) || label[e] < 0 ||
          static_cast<std::size_t>(label[e]) >= num_forests) {
        reject(verdict, v);
        break;
      }
      if (orient.tail(e) == v && !out_labels.insert(label[e]).second) {
        reject(verdict, v);
        break;
      }
    }
  }
  return verdict;
}

}  // namespace valocal
