#include "graph/arboricity.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "util/assertx.hpp"
#include "util/mathx.hpp"

namespace valocal {

namespace {

/// Population count as the SWAR bit-slice sum: std::popcount compiles to
/// a libgcc call on a build without the POPCNT instruction, and the
/// subgraph build below counts once per neighbor.
constexpr Vertex popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555;
  x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f;
  return static_cast<Vertex>((x * 0x0101010101010101) >> 56);
}

/// An induced subgraph G[S] in CSR form over the compact ids
/// 0..|S|-1 (S's members in increasing order). It offers the three
/// calls peel() reads from a Graph.
class InducedCsr {
 public:
  /// G[S_t] for S_t = {v : deg(v) >= t}. A membership bitset with a
  /// popcount rank per 64-bit word maps a member to its compact id, so
  /// the build is one pass over the degrees plus one pass over the
  /// members' adjacency lists.
  InducedCsr(const Graph& g, std::size_t t) {
    const std::size_t n = g.num_vertices();
    std::vector<std::uint64_t> member((n + 63) / 64, 0);
    std::size_t half_edges = 0;  // the members' degree sum bounds G[S]
    for (Vertex v = 0; v < n; ++v)
      if (g.degree(v) >= t) {
        member[v >> 6] |= std::uint64_t{1} << (v & 63);
        half_edges += g.degree(v);
      }
    std::vector<std::uint32_t> rank(member.size());
    std::uint32_t members = 0;
    for (std::size_t w = 0; w < member.size(); ++w) {
      rank[w] = members;
      members += popcount64(member[w]);
    }
    offsets_.reserve(std::size_t{members} + 1);
    offsets_.push_back(0);
    adjacency_.resize(half_edges);
    // Branch-free gather (membership follows no pattern along a hub's
    // list, so a branch per neighbor mispredicts): every neighbor's
    // compact id is written, and the cursor advances only past members.
    std::size_t end = 0;
    for (std::size_t w = 0; w < member.size(); ++w)
      for (std::uint64_t bits = member[w]; bits != 0; bits &= bits - 1) {
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(bits));
        for (const Vertex u : g.neighbors(v)) {
          const std::uint64_t word = member[u >> 6];
          const std::uint64_t below = (std::uint64_t{1} << (u & 63)) - 1;
          adjacency_[end] = rank[u >> 6] + popcount64(word & below);
          end += (word >> (u & 63)) & 1;
        }
        offsets_.push_back(end);
      }
    adjacency_.resize(end);
  }

  std::size_t num_vertices() const { return offsets_.size() - 1; }
  std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const Vertex> neighbors(Vertex v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<Vertex> adjacency_;
};

struct PeelResult {
  std::size_t degeneracy = 0;
  std::vector<Vertex> order;
};

/// The classic peel-min-degree bucket scheme over a CSR view (a Graph
/// or an InducedCsr): O(n + m).
template <class Csr>
PeelResult peel(const Csr& g) {
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
    const std::size_t core = peel(InducedCsr(g, hi)).degeneracy;
    if (core >= hi) return {core, DegeneracyPath::kHubCore};
    bound = std::max(bound, core);
  }
  if (small(bound))
    return {peel(InducedCsr(g, bound)).degeneracy,
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
