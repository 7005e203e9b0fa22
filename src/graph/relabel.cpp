#include "graph/relabel.hpp"

#include <numeric>
#include <utility>

#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace valocal {

Graph relabel(const Graph& g, const std::vector<Vertex>& perm) {
  VALOCAL_REQUIRE(perm.size() == g.num_vertices(),
                  "permutation size mismatch");
  std::vector<char> seen(perm.size(), 0);
  for (Vertex p : perm) {
    VALOCAL_REQUIRE(p < perm.size() && !seen[p],
                    "relabel needs a permutation");
    seen[p] = 1;
  }
  // A permutation of a simple graph is simple: no dedup needed, and
  // the edges keep g's ids.
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(g.num_edges());
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    edges.emplace_back(perm[ix.edge_u(e)], perm[ix.edge_v(e)]);
  return Graph(g.num_vertices(), std::move(edges));
}

std::vector<Vertex> random_permutation(std::size_t n,
                                       std::uint64_t seed) {
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), Vertex{0});
  Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  return perm;
}

std::vector<Vertex> bit_reversal_permutation(std::size_t log_n) {
  VALOCAL_REQUIRE(log_n >= 1 && log_n < 32, "need 1 <= log_n < 32");
  const std::size_t n = std::size_t{1} << log_n;
  std::vector<Vertex> perm(n);
  for (std::size_t x = 0; x < n; ++x) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log_n; ++b)
      if (x & (std::size_t{1} << b))
        r |= std::size_t{1} << (log_n - 1 - b);
    perm[x] = static_cast<Vertex>(r);
  }
  return perm;
}

}  // namespace valocal
