// Reproduction of the paper's foundational lemmas:
//   L6.1    — per-round active counts n_i vs the bound
//             (2/(2+eps))^(i-1) * n, over epsilon;
//   Thm 6.3 — Procedure Partition has O(1) vertex-averaged complexity
//             (flat in n) against a Theta(log n) worst case;
//   Thm 7.1 — Parallelized-Forest-Decomposition keeps the O(1)
//             vertex-averaged complexity and O(a) forests.
#include <cmath>
#include <iostream>

#include "algo/forest_decomposition.hpp"
#include "algo/partition.hpp"
#include "bench_common.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

int run() {
  ValidationTracker tracker;

  print_header("Lemma 6.1 — active-vertex decay vs bound (n = 2^16)");
  Table decay({"eps", "round", "active n_i", "bound (2/(2+eps))^{i-1} n",
               "ok"});
  for (double eps : {0.5, 1.0, 2.0}) {
    const PartitionParams params{.arboricity = 1, .epsilon = eps};
    const std::size_t n = 1 << 16;
    const Graph g = adversarial_tree(n, params);
    const auto result =
        labelled("partition", [&] { return compute_h_partition(g, params); });
    tracker.expect(is_h_partition(g, result.hset, result.threshold),
                   "L6.1 partition validity");
    double bound = static_cast<double>(n);
    const double ratio = 2.0 / (2.0 + eps);
    for (std::size_t i = 0; i < result.metrics.active_per_round.size();
         ++i) {
      const auto ni = result.metrics.active_per_round[i];
      const bool ok = static_cast<double>(ni) <= bound + 1e-9;
      tracker.expect(ok, "L6.1 bound");
      decay.add_row({Table::num(eps, 1),
                     Table::num(static_cast<std::uint64_t>(i + 1)),
                     Table::num(static_cast<std::uint64_t>(ni)),
                     Table::num(bound, 1), ok ? "yes" : "NO"});
      bound *= ratio;
    }
  }
  decay.print(std::cout);

  print_header(
      "Theorem 6.3 / 7.1 — VA flat in n, worst case Theta(log n)");
  Table flat({"n", "Partition VA", "Partition WC", "ForestDecomp VA",
              "ForestDecomp WC", "forests (<= A)"});
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  for (std::size_t n : {1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}) {
    const Graph g = adversarial_tree(n, params);
    const auto part =
        labelled("partition", [&] { return compute_h_partition(g, params); });
    tracker.expect(is_h_partition(g, part.hset, part.threshold),
                   "Thm6.3 partition");
    const auto fd = labelled("forest_decomp", [&] {
      return compute_forest_decomposition(g, params);
    });
    tracker.expect(
        is_forest_decomposition(g, fd.decomposition.orientation,
                                fd.decomposition.label,
                                fd.decomposition.num_forests),
        "Thm7.1 decomposition");
    tracker.expect(fd.decomposition.num_forests <= params.threshold(),
                   "Thm7.1 O(a) forests");
    flat.add_row(
        {Table::num(static_cast<std::uint64_t>(n)),
         Table::num(part.metrics.vertex_averaged()),
         Table::num(static_cast<std::uint64_t>(part.metrics.worst_case())),
         Table::num(fd.metrics.vertex_averaged()),
         Table::num(static_cast<std::uint64_t>(fd.metrics.worst_case())),
         Table::num(static_cast<std::uint64_t>(
             fd.decomposition.num_forests))});
  }
  flat.print(std::cout);

  std::cout << "\nShape check: VA columns stay constant while WC grows "
               "by ~log(A+1) per 4x of n (one extra tree level).\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  valocal::bench::configure_engine_threads();
  return valocal::bench::run();
}
