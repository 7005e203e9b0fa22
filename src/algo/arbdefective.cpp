#include "algo/arbdefective.hpp"

#include <algorithm>
#include <vector>

#include "algo/deg_plus_one_plan.hpp"
#include "algo/partition.hpp"
#include "baseline/be08_arb_color.hpp"
#include "graph/arboricity.hpp"
#include "util/assertx.hpp"

namespace valocal {

namespace {

/// Runs the (Delta+1) plan on every H-set in parallel (each vertex only
/// exchanges with same-H-set neighbors); returns the auxiliary colors
/// and the stage duration (the plan's round count).
std::pair<std::vector<std::uint64_t>, std::size_t> psi_per_set(
    const Graph& g, const std::vector<std::int32_t>& hset,
    std::size_t threshold) {
  const DegPlusOnePlan plan(std::max<std::size_t>(1, g.num_vertices()),
                            threshold);
  std::vector<std::uint64_t> aux(g.num_vertices()), next(aux.size()), nbrs;
  for (Vertex v = 0; v < g.num_vertices(); ++v) aux[v] = v;
  for (std::size_t t = 0; t < plan.num_rounds(); ++t) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (plan.reads_neighbors(t, aux[v])) {
        nbrs.clear();
        for (Vertex u : g.neighbors(v))
          if (hset[u] == hset[v]) nbrs.push_back(aux[u]);
        next[v] = plan.advance(t, aux[v], nbrs);
      } else {
        std::size_t same_set = 0;
        for (Vertex u : g.neighbors(v))
          if (hset[u] == hset[v]) ++same_set;
        next[v] = plan.advance_unread(t, aux[v], same_set);
      }
    }
    aux.swap(next);
  }
  return {std::move(aux), plan.num_rounds()};
}

/// The least-used-parent-color pick over the partial orientation
/// (parents: later H-set, or same H-set with strictly larger psi
/// bucket). Returns classes plus the wait-chain stage duration.
ArbdefectiveResult pick_least_used(const Graph& g,
                                   const std::vector<std::int32_t>& hset,
                                   const std::vector<std::uint64_t>& bucket,
                                   std::size_t k) {
  const std::size_t n = g.num_vertices();
  const auto is_parent = [&](Vertex v, Vertex u) {
    return hset[u] > hset[v] ||
           (hset[u] == hset[v] && bucket[u] > bucket[v]);
  };

  // Kahn sweep over the parent DAG; depth(v) = rounds v waits.
  std::vector<std::size_t> pending(n, 0);
  for (Vertex v = 0; v < n; ++v)
    for (Vertex u : g.neighbors(v))
      if (is_parent(v, u)) ++pending[v];

  std::vector<Vertex> queue;
  std::vector<std::size_t> depth(n, 0);
  for (Vertex v = 0; v < n; ++v)
    if (pending[v] == 0) queue.push_back(v);

  ArbdefectiveResult result;
  result.color.assign(n, 0);
  result.rounds.assign(n, 0);
  std::size_t processed = 0, max_depth = 0;
  std::vector<std::uint32_t> used(k);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Vertex v = queue[i];
    ++processed;
    std::fill(used.begin(), used.end(), 0);
    for (Vertex u : g.neighbors(v))
      if (is_parent(v, u)) ++used[result.color[u]];
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c)
      if (used[c] < used[best]) best = c;
    result.color[v] = best;
    result.rounds[v] = static_cast<std::uint32_t>(depth[v] + 1);
    max_depth = std::max(max_depth, depth[v]);
    for (Vertex u : g.neighbors(v)) {
      if (!is_parent(u, v)) continue;  // v is a parent of u
      depth[u] = std::max(depth[u], depth[v] + 1);
      if (--pending[u] == 0) queue.push_back(u);
    }
  }
  VALOCAL_ENSURE(processed == n,
                 "partial orientation has a directed cycle");
  result.duration = max_depth + 1;
  return result;
}

}  // namespace

ArbdefectiveResult h_arbdefective_coloring(
    const Graph& g, const std::vector<std::int32_t>& hset,
    std::size_t threshold, std::size_t k, std::size_t t) {
  VALOCAL_REQUIRE(k >= 1 && t >= 1, "arbdefective needs k, t >= 1");
  VALOCAL_REQUIRE(hset.size() == g.num_vertices(), "hset size mismatch");

  auto [aux, psi_rounds] = psi_per_set(g, hset, threshold);
  // Bucket the proper per-set coloring into t^2 defective classes
  // (substitution S4).
  const std::uint64_t buckets = static_cast<std::uint64_t>(t) * t;
  std::vector<std::uint64_t> bucket(aux.size());
  for (std::size_t v = 0; v < aux.size(); ++v)
    bucket[v] = aux[v] % buckets;

  ArbdefectiveResult result = pick_least_used(g, hset, bucket, k);
  result.duration += psi_rounds;
  for (auto& r : result.rounds)
    r += static_cast<std::uint32_t>(psi_rounds);
  return result;
}

ArbdefectiveResult arbdefective_coloring(const Graph& g,
                                         std::size_t arboricity,
                                         std::size_t k, std::size_t t) {
  const PartitionParams params{.arboricity =
                                   std::max<std::size_t>(1, arboricity),
                               .epsilon = 2.0};
  const auto partition = compute_h_partition(g, params);
  ArbdefectiveResult result = h_arbdefective_coloring(
      g, partition.hset, partition.threshold, k, t);
  result.duration += partition.metrics.worst_case();
  for (auto& r : result.rounds)
    r += static_cast<std::uint32_t>(partition.metrics.worst_case());
  return result;
}

SubColoring legal_coloring(const Graph& g, std::size_t arboricity,
                           std::size_t p) {
  VALOCAL_REQUIRE(p >= 6, "Legal-Coloring needs p > 3 + eps (eps = 2)");
  const std::size_t n = g.num_vertices();
  SubColoring out;
  out.color.assign(n, 0);
  out.rounds.assign(n, 0);
  if (n == 0) {
    out.palette = 1;
    return out;
  }

  // Refinement loop: part[v] identifies the current subgraph of v.
  std::vector<std::uint64_t> part(n, 0);
  std::uint64_t num_parts = 1;
  std::size_t alpha = std::max<std::size_t>(1, arboricity);
  std::size_t total_duration = 0;

  while (alpha > p) {
    std::uint64_t next_parts = num_parts * p;
    std::vector<std::uint64_t> next_part(n);
    std::size_t stage_duration = 0;
    // All current parts refine in parallel: stage duration is the max.
    for (std::uint64_t q = 0; q < num_parts; ++q) {
      std::vector<Vertex> members;
      for (Vertex v = 0; v < n; ++v)
        if (part[v] == q) members.push_back(v);
      if (members.empty()) continue;
      const Graph sub = Graph::induced(g, members);
      const ArbdefectiveResult refined =
          arbdefective_coloring(sub, alpha, p, p);
      stage_duration = std::max(stage_duration, refined.duration);
      for (std::size_t i = 0; i < members.size(); ++i)
        next_part[members[i]] = q * p + refined.color[i];
    }
    total_duration += stage_duration;
    part = std::move(next_part);
    num_parts = next_parts;
    // alpha := floor(alpha/p + (2+eps) * alpha/p), eps = 2.
    alpha = (alpha + 4 * alpha) / p;
    alpha = std::max<std::size_t>(1, alpha);
  }

  // Leaf stage: Arb-Color each part in parallel on disjoint palettes.
  std::size_t leaf_palette = 0;
  std::size_t stage_duration = 0;
  std::vector<std::uint64_t> leaf_color(n, 0);
  std::vector<std::uint64_t> live_parts;
  for (std::uint64_t q = 0; q < num_parts; ++q) {
    std::vector<Vertex> members;
    for (Vertex v = 0; v < n; ++v)
      if (part[v] == q) members.push_back(v);
    if (members.empty()) continue;
    live_parts.push_back(q);
    const Graph sub = Graph::induced(g, members);
    // Defensive arboricity bound for the leaf run: alpha by the paper's
    // invariant, bumped if the measured degeneracy contradicts it.
    const std::size_t leaf_a =
        std::max<std::size_t>({alpha, std::size_t{1}, degeneracy(sub)});
    const auto colored =
        compute_be08_arb_color(sub, {.arboricity = leaf_a});
    leaf_palette = std::max(leaf_palette, colored.palette_bound);
    stage_duration =
        std::max(stage_duration, colored.metrics.worst_case());
    for (std::size_t i = 0; i < members.size(); ++i)
      leaf_color[members[i]] = static_cast<std::uint64_t>(colored.color[i]);
  }
  total_duration += stage_duration;

  // Disjoint palettes: compact the live part ids.
  std::vector<std::uint64_t> compact(num_parts, 0);
  for (std::size_t i = 0; i < live_parts.size(); ++i)
    compact[live_parts[i]] = i;
  for (Vertex v = 0; v < n; ++v)
    out.color[v] = compact[part[v]] * leaf_palette + leaf_color[v];
  out.palette = std::max<std::uint64_t>(1, live_parts.size()) *
                std::max<std::size_t>(1, leaf_palette);
  for (Vertex v = 0; v < n; ++v)
    out.rounds[v] = static_cast<std::uint32_t>(total_duration);
  return out;
}

}  // namespace valocal
