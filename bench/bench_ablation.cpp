// Ablations over the design choices DESIGN.md calls out:
//   AB1 — Procedure Partition's epsilon: degree threshold A = (2+eps)a
//         trades palette sizes (more colors) against decay speed
//         (smaller VA constant and fewer H-sets);
//   AB2 — the segmentation parameter k: colors O(k a^2) vs vertex-
//         averaged O(log^(k) n), the paper's central tunable;
//   AB3 — early termination itself: the same pipelines with
//         run-to-completion semantics collapse to VA = WC, which is the
//         entire motivation of the vertex-averaged measure.
#include <iostream>

#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/general_partition.hpp"
#include "baseline/be08_arb_color.hpp"
#include "baseline/wc_delta_plus1.hpp"
#include "bench_common.hpp"
#include "util/mathx.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

int run() {
  ValidationTracker tracker;
  const std::size_t n = 1 << 16;

  print_header("AB1 — epsilon sweep (coloring_a2logn, adversarial tree)");
  Table ab1({"eps", "threshold A", "H-sets (WC)", "colors", "palette",
             "VA"});
  for (double eps : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    const PartitionParams params{.arboricity = 3, .epsilon = eps};
    const Graph g = adversarial_tree(n, params);
    const auto r =
        labelled("a2logn", [&] { return compute_coloring_a2logn(g, params); });
    tracker.expect(is_proper_coloring(g, r.color), "AB1");
    ab1.add_row({Table::num(eps, 2),
                 Table::num(static_cast<std::uint64_t>(
                     params.threshold())),
                 Table::num(static_cast<std::uint64_t>(
                     r.metrics.worst_case())),
                 Table::num(static_cast<std::uint64_t>(r.num_colors)),
                 Table::num(static_cast<std::uint64_t>(r.palette_bound)),
                 Table::num(r.metrics.vertex_averaged())});
  }
  ab1.print(std::cout);

  print_header("AB2 — k sweep: colors vs VA tradeoff (n = 2^16)");
  const PartitionParams params{.arboricity = 1, .epsilon = 2.0};
  const Graph g = adversarial_tree(n, params);
  Table ab2({"k", "log^(k) n", "ka2 colors", "ka2 VA", "ka colors",
             "ka VA"});
  for (int k = 2; k <= rho(n); ++k) {
    const auto r2 =
        labelled("ka2", [&] { return compute_coloring_ka2(g, params, k); });
    const auto r1 =
        labelled("ka", [&] { return compute_coloring_ka(g, params, k); });
    tracker.expect(is_proper_coloring(g, r2.color), "AB2 ka2");
    tracker.expect(is_proper_coloring(g, r1.color), "AB2 ka");
    ab2.add_row({Table::num(k),
                 Table::num(static_cast<std::uint64_t>(ilog(k, n))),
                 Table::num(static_cast<std::uint64_t>(r2.num_colors)),
                 Table::num(r2.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(r1.num_colors)),
                 Table::num(r1.metrics.vertex_averaged())});
  }
  ab2.print(std::cout);

  print_header("AB3 — early termination ablation (VA/WC)");
  Table ab3({"pipeline", "VA", "WC", "WC/VA"});
  {
    const auto ours =
        labelled("a2logn", [&] { return compute_coloring_a2logn(g, params); });
    tracker.expect(is_proper_coloring(g, ours.color), "AB3 ours");
    ab3.add_row({"early termination (coloring_a2logn)",
                 Table::num(ours.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     ours.metrics.worst_case())),
                 fmt_ratio(ours.metrics.vertex_averaged(),
                           static_cast<double>(
                               ours.metrics.worst_case()))});
    const auto base =
        labelled("be08", [&] { return compute_be08_arb_color(g, params); });
    tracker.expect(is_proper_coloring(g, base.color), "AB3 be08");
    ab3.add_row({"run-to-completion (be08_arb_color)",
                 Table::num(base.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     base.metrics.worst_case())),
                 fmt_ratio(base.metrics.vertex_averaged(),
                           static_cast<double>(
                               base.metrics.worst_case()))});
    const Graph stars = gen::star_union(n, 8);
    const auto wc =
        labelled("wc_delta", [&] { return compute_wc_delta_plus1(stars); });
    tracker.expect(is_proper_coloring(stars, wc.color), "AB3 wc");
    ab3.add_row({"run-to-completion (wc_delta_plus1, star union)",
                 Table::num(wc.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     wc.metrics.worst_case())),
                 fmt_ratio(wc.metrics.vertex_averaged(),
                           static_cast<double>(wc.metrics.worst_case()))});
  }
  ab3.print(std::cout);

  print_header("AB4 — known vs unknown arboricity (General-Partition)");
  Table ab4({"a (true bound)", "known: VA", "known: WC", "unknown: VA",
             "unknown: WC", "estimate"});
  for (std::size_t a : {2u, 8u, 32u}) {
    const Graph gf = gen::forest_union(1 << 13, a, a + 3);
    const auto known = labelled(
        "partition", [&] { return compute_h_partition(gf, {.arboricity = a}); });
    tracker.expect(is_h_partition(gf, known.hset, known.threshold),
                   "AB4 known");
    const auto unknown = labelled(
        "general_partition", [&] { return compute_general_partition(gf); });
    tracker.expect(
        is_h_partition(gf, unknown.hset, unknown.effective_threshold),
        "AB4 unknown");
    ab4.add_row({Table::num(static_cast<std::uint64_t>(a)),
                 Table::num(known.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     known.metrics.worst_case())),
                 Table::num(unknown.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     unknown.metrics.worst_case())),
                 Table::num(static_cast<std::uint64_t>(
                     unknown.arboricity_estimate))});
  }
  ab4.print(std::cout);

  std::cout << "\nShape check: AB1 — larger eps shrinks the H-set count "
               "and the VA constant while the cover-free palette grows "
               "with A; AB2 — colors grow ~linearly in k while VA falls "
               "with log^(k) n; AB3 — run-to-completion pins VA = WC.\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  valocal::bench::configure_engine_threads();
  return valocal::bench::run();
}
