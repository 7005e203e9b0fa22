#include "algo/one_plus_eta.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/coloring_ka2.hpp"
#include "algo/partition.hpp"
#include "graph/arboricity.hpp"
#include "util/assertx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

namespace {

std::size_t loglog_rounds(std::size_t n) {
  if (n < 4) return 1;
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(n))));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(2.0 * loglog)));
}

/// The recursion. `n_global` fixes the r = ceil(2 log log n) schedule
/// parameter at the top-level n, as in the paper.
SubColoring one_plus_eta_rec(const Graph& g, std::size_t arboricity,
                             std::size_t big_c, std::size_t n_global,
                             int depth) {
  VALOCAL_ENSURE(depth < 64, "one_plus_eta recursion runaway");
  const std::size_t n = g.num_vertices();
  SubColoring out;
  out.color.assign(n, 0);
  out.rounds.assign(n, 0);
  out.palette = 1;
  if (n == 0) return out;

  if (arboricity < big_c) {
    // Base case: Section 7.6's O(a^2)-coloring with k = 2, with
    // per-vertex round counts straight from the LOCAL engine.
    const auto base =
        compute_coloring_ka2(g, {.arboricity = std::max<std::size_t>(
                                     1, arboricity)},
                             2);
    for (Vertex v = 0; v < n; ++v)
      out.color[v] = static_cast<std::uint64_t>(base.color[v]);
    out.rounds.assign(base.metrics.rounds.begin(),
                      base.metrics.rounds.end());
    out.palette = std::max<std::uint64_t>(1, base.palette_bound);
    return out;
  }

  const PartitionParams part_params{.arboricity = arboricity,
                                    .epsilon = 2.0};
  const std::size_t threshold = part_params.threshold();
  const std::size_t r = loglog_rounds(n_global);
  // Only the first r H-sets form H; every later vertex is still active
  // after round r.
  std::vector<std::int32_t> hset = compute_h_partition(g, part_params).hset;
  for (auto& h : hset)
    if (h > static_cast<std::int32_t>(r)) h = 0;

  std::vector<Vertex> in_h, rest;
  for (Vertex v = 0; v < n; ++v)
    (hset[v] > 0 ? in_h : rest).push_back(v);

  // Branch 1: Legal-Coloring on G(V \ H), prefix 1.
  SubColoring legal;
  if (!rest.empty()) {
    legal = legal_coloring(Graph::induced(g, rest), arboricity, big_c);
  }

  // Branch 2: H-Arbdefective O(C)-coloring of H with k = t = (3+eps)C,
  // eps = 2, then recurse per class with arboricity bound
  // floor(a/t + (2+eps)a/k) = floor(5a/(5C)) = floor(a/C).
  const std::size_t kt = 5 * big_c;
  std::vector<std::uint64_t> h_class(n, 0);
  // Per-class arbdefective stage length: the recursion on class j can
  // start (dataflow-style, as in the Section 7.4 recoloring) once every
  // member of class j has picked.
  std::vector<std::uint32_t> class_arb_rounds(kt, 0);
  std::vector<SubColoring> class_results(kt);
  std::vector<std::vector<Vertex>> class_members(kt);
  if (!in_h.empty()) {
    const Graph sub = Graph::induced(g, in_h);
    std::vector<std::int32_t> sub_hset(in_h.size());
    for (std::size_t i = 0; i < in_h.size(); ++i)
      sub_hset[i] = hset[in_h[i]];
    const ArbdefectiveResult arb =
        h_arbdefective_coloring(sub, sub_hset, threshold, kt, kt);
    for (std::size_t i = 0; i < in_h.size(); ++i) {
      h_class[in_h[i]] = arb.color[i];
      class_members[arb.color[i]].push_back(in_h[i]);
      class_arb_rounds[arb.color[i]] =
          std::max(class_arb_rounds[arb.color[i]], arb.rounds[i]);
    }
    const std::size_t child_a = std::max<std::size_t>(
        1, arboricity / big_c);
    for (std::size_t j = 0; j < kt; ++j) {
      if (class_members[j].empty()) continue;
      const Graph cls = Graph::induced(g, class_members[j]);
      // Defensive bound: the arbdefect promise is verified against the
      // measured degeneracy so the recursion can never stall.
      const std::size_t safe_a = std::max<std::size_t>(
          child_a, (degeneracy(cls) + 1) / 2);
      class_results[j] =
          one_plus_eta_rec(cls, safe_a, big_c, n_global, depth + 1);
    }
  }

  // Combine palettes: prefix '1' = legal branch, prefix '2j' = class j.
  std::uint64_t class_palette = 1;
  for (const auto& cr : class_results)
    class_palette = std::max(class_palette, cr.palette);
  const std::uint64_t legal_palette = std::max<std::uint64_t>(
      1, legal.palette);
  out.palette = legal_palette + kt * class_palette;

  for (std::size_t i = 0; i < rest.size(); ++i) {
    const Vertex v = rest[i];
    out.color[v] = legal.color[i];
    out.rounds[v] = static_cast<std::uint32_t>(r) + legal.rounds[i];
  }
  for (std::size_t j = 0; j < kt; ++j) {
    for (std::size_t i = 0; i < class_members[j].size(); ++i) {
      const Vertex v = class_members[j][i];
      out.color[v] = legal_palette + j * class_palette +
                     class_results[j].color[i];
      out.rounds[v] = static_cast<std::uint32_t>(r) +
                      class_arb_rounds[j] + class_results[j].rounds[i];
    }
  }
  return out;
}

}  // namespace

ColoringResult compute_one_plus_eta(const Graph& g,
                                    OnePlusEtaParams params) {
  VALOCAL_REQUIRE(params.big_c >= 6,
                  "one_plus_eta needs C >= 6 (Legal-Coloring convergence)");
  const SubColoring sub = one_plus_eta_rec(
      g, std::max<std::size_t>(1, params.arboricity), params.big_c,
      std::max<std::size_t>(2, g.num_vertices()), 0);

  ColoringResult result;
  result.color.reserve(g.num_vertices());
  for (auto c : sub.color) result.color.push_back(static_cast<int>(c));
  result.num_colors = count_colors(result.color);
  result.palette_bound = static_cast<std::size_t>(sub.palette);
  result.metrics.rounds = sub.rounds;
  // The per-round active profile is not tracked by the recursive
  // driver; derive the decay curve from the round counts instead.
  std::size_t max_rounds = 0;
  for (auto r : sub.rounds)
    max_rounds = std::max<std::size_t>(max_rounds, r);
  result.metrics.active_per_round.assign(max_rounds, 0);
  for (auto r : sub.rounds)
    if (r > 0) ++result.metrics.active_per_round[r - 1];
  for (std::size_t i = max_rounds; i-- > 1;)
    result.metrics.active_per_round[i - 1] +=
        result.metrics.active_per_round[i];
  // The metrics were spliced together from sub-run round counts, so
  // no engine finalized them; do it here for O(1) accessors + the
  // edge-decay sequence.
  result.metrics.finalize(g);
  return result;
}


VALOCAL_ALGO_SPEC(one_plus_eta) {
  using namespace registry;
  AlgoSpec s = spec_base("one_plus_eta", "one_plus_eta",
                         Problem::kVertexColoring, /*deterministic=*/true,
                         {Param::kArboricity},
                         {{Measure::kVertexAveraged, "O~(a)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Sec 7.8 / T1.3");
  s.rows = {{.section = BenchSection::kTable1Eta,
             .order = 0,
             .row = "T1.3 O(a^{1+eta})",
             .algo_label = "one_plus_eta(C=8)"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(
        g, "one_plus_eta",
        compute_one_plus_eta(g, {.arboricity = p.arboricity}));
  };
  return s;
}

}  // namespace valocal
