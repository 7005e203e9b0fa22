// The ring results of [12] that frame the paper (Sections 2-3):
// leader election's exponential VA-vs-WC gap (positive) and 3-coloring's
// VA = WC (negative). Run on canonical rings across sizes.
#include <iostream>

#include "algo/rings.hpp"
#include "bench_common.hpp"
#include "util/mathx.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

/// Ring of 2^k vertices with the BIT-REVERSAL ID assignment: vertex ids
/// around the cycle are rev(0), rev(1), ... — a ruler-like sequence
/// whose distances-to-nearest-smaller sum to Theta(n log n). The
/// vertex-averaged measure is a MAX over ID assignments; this is the
/// adversarial one for leader election (sequential ids give VA O(1)).
Graph bit_reversal_ring(std::size_t log_n) {
  const std::size_t n = std::size_t{1} << log_n;
  auto rev = [&](std::size_t x) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log_n; ++b)
      if (x & (std::size_t{1} << b)) r |= std::size_t{1} << (log_n - 1 - b);
    return static_cast<Vertex>(r);
  };
  GraphBuilder b(n);
  for (std::size_t i = 0; i < n; ++i)
    b.add_edge(rev(i), rev((i + 1) % n));
  return std::move(b).build();
}

int run() {
  ValidationTracker tracker;

  print_header(
      "[12] leader election on rings — VA O(log n) vs WC Theta(n)");
  Table t({"ids", "n", "VA (commit rounds)", "WC", "WC/VA", "log2 n"});
  for (std::size_t logn : {8u, 10u, 12u, 14u, 16u}) {
    const std::size_t n = std::size_t{1} << logn;
    for (int adversarial : {0, 1}) {
      const Graph ring =
          adversarial ? bit_reversal_ring(logn) : gen::ring(n);
      const auto result = labelled(
          "leader", [&] { return compute_ring_leader_election(ring); });
      tracker.expect(result.leader == 0, "leader must be the minimum id");
      t.add_row({adversarial ? "bit-reversal" : "sequential",
                 Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(result.metrics.vertex_averaged()),
                 Table::num(static_cast<std::uint64_t>(
                     result.metrics.worst_case())),
                 fmt_ratio(result.metrics.vertex_averaged(),
                           static_cast<double>(
                               result.metrics.worst_case())),
                 Table::num(static_cast<std::uint64_t>(logn))});
    }
  }
  t.print(std::cout);

  print_header(
      "[12] 3-coloring of rings — the negative result: VA == WC");
  Table c({"n", "colors", "VA", "WC", "log* n"});
  for (std::size_t n : {1 << 8, 1 << 12, 1 << 16, 1 << 18}) {
    const Graph g = gen::ring(n);
    const auto result =
        labelled("ring3", [&] { return compute_ring_3coloring(g); });
    tracker.expect(is_proper_coloring(g, result.color), "ring coloring");
    tracker.expect(result.num_colors <= 3, "3 colors");
    tracker.expect(result.metrics.vertex_averaged() ==
                       static_cast<double>(result.metrics.worst_case()),
                   "VA == WC on rings");
    c.add_row({Table::num(static_cast<std::uint64_t>(n)),
               Table::num(static_cast<std::uint64_t>(result.num_colors)),
               Table::num(result.metrics.vertex_averaged()),
               Table::num(static_cast<std::uint64_t>(
                   result.metrics.worst_case())),
               Table::num(log_star(n))});
  }
  c.print(std::cout);

  std::cout << "\nShape check: leader election's WC/VA ratio widens "
               "~linearly in n / log n; 3-coloring's VA and WC columns "
               "are identical and track log* n.\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  valocal::bench::configure_engine_threads();
  return valocal::bench::run();
}
