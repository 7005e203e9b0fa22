// Arboricity estimation.
//
// The algorithms assume the arboricity `a` is known (Section 6.1 notes
// the standard reduction from unknown arboricity). Generators report a
// construction bound; for arbitrary graphs this module supplies:
//
//  * degeneracy(G)       — exact; satisfies
//                          a(G) <= degeneracy(G) <= 2 a(G) - 1,
//  * nash_williams_lb(G) — ceil(m / (n - 1)) over the whole graph, a
//                          lower bound on a(G),
//
// so degeneracy is the practical "known arboricity" stand-in.
//
// degeneracy(G) peels only the subgraph that can hold the top core.
// Let S_t = {v : deg(v) >= t} and H_t = G[S_t]. Always
// degeneracy(H_t) <= degeneracy(G), and if degeneracy(G) >= t the top
// core lies inside S_t, so degeneracy(H_t) = degeneracy(G). The degree
// histogram gives hi, the largest k with at least k + 1 vertices of
// degree >= k (an upper bound), and lo = ceil(m / n) (a lower bound).
// When S_hi is small, L = degeneracy(H_hi) is the answer if L >= hi;
// otherwise one peel of H_max(L, lo) is exact. Whenever the S_t to peel
// is not small (8 |S_t| > n), the whole graph is peeled instead, in
// O(n + m). On hub-heavy graphs (RMAT) the restricted peels touch a
// few percent of the edges; on near-regular graphs the histogram and
// at most one small H_hi are all the overhead over the full peel.
// H_t comes from Graph::induced, the library's one induced-subgraph
// builder, and one bucket peel over a Graph serves the whole graph,
// H_t and degeneracy_order.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace valocal {

/// The degeneracy (smallest d such that every subgraph has a vertex of
/// degree <= d), exact, from the restricted peel described above.
std::size_t degeneracy(const Graph& g);

namespace detail {

/// Which step of the search settled the degeneracy: the peel of H_hi,
/// the one peel of H_max(L, lo), or the peel of the whole graph. Not
/// part of the API: test_arboricity and bench_micro read it to check
/// that their graphs reach the step they are meant to.
enum class DegeneracyPath : std::uint8_t {
  kHubCore,
  kRestricted,
  kFullPeel
};

struct DegeneracySearch {
  std::size_t value = 0;
  DegeneracyPath path = DegeneracyPath::kFullPeel;
};

/// degeneracy(g) with the path that found it.
DegeneracySearch degeneracy_search(const Graph& g);

}  // namespace detail

/// A degeneracy ordering: vertices in peel order; each vertex has at
/// most degeneracy(g) neighbors later in the order.
std::vector<Vertex> degeneracy_order(const Graph& g);

/// Nash-Williams global density lower bound ceil(m / (n-1)) (n >= 2);
/// returns 0 for edgeless graphs.
std::size_t nash_williams_lb(const Graph& g);

/// Practical arboricity estimate used when a generator bound is not
/// available: max(nash_williams_lb, ceil(degeneracy / 2)) ... <= a(G)
/// <= degeneracy(G). Returns the upper bound (safe for the algorithms,
/// which only need a >= a(G)).
std::size_t arboricity_upper_bound(const Graph& g);

}  // namespace valocal
