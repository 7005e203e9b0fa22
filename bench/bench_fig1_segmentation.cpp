// Reproduction of Figure 1: an execution trace of the segmentation
// scheme (Section 7.5) with k = rho(n). The figure illustrates, per
// segment i = k..1: the segment's c*log^(i) n H-sets, the population
// each segment absorbs (decaying as n / log^(i-1) n), and the disjoint
// per-segment palettes. We print exactly that, measured from a real run
// of the Section 7.7 algorithm, plus the per-round active-vertex decay
// series the whole paper is built on.
#include <iostream>

#include "algo/coloring_ka.hpp"
#include "algo/segmentation.hpp"
#include "bench_common.hpp"
#include "util/mathx.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

int run() {
  ValidationTracker tracker;
  const PartitionParams params{.arboricity = 1, .epsilon = 2.0};
  const std::size_t n = 1 << 18;
  const Graph g = adversarial_tree(n, params);
  const int k = rho(n);

  std::cout << "Figure 1 reproduction: segmentation execution, n = " << n
            << ", k = rho(n) = " << k << ", adversarial (A+1)-ary tree\n";

  ColoringKaAlgo algo(n, params, k);
  const auto result =
      labelled("ka", [&] { return compute_coloring_ka(g, params, k); });
  tracker.expect(is_proper_coloring(g, result.color), "fig1 coloring");

  // Population per H-set, measured from the run: recover each vertex's
  // segment from its final color's palette offset.
  const std::size_t per_palette = params.threshold() + 1;
  std::vector<std::size_t> seg_population(algo.segments().size(), 0);
  for (int c : result.color)
    ++seg_population[static_cast<std::size_t>(c) / per_palette];

  print_header("Per-segment execution trace");
  Table t({"segment i (paper)", "H-sets (c*log^(i) n)", "population",
           "pop. fraction", "palette"});
  for (std::size_t s = 0; s < algo.segments().size(); ++s) {
    const Segment& seg = algo.segments()[s];
    const std::size_t lo = s * per_palette;
    // Built by appends: GCC 12 at -O3 reports a false -Wrestrict on a
    // `"[" + std::string` operator+ chain.
    std::string range = "[";
    range += Table::num(static_cast<std::uint64_t>(lo));
    range += ", ";
    range += Table::num(static_cast<std::uint64_t>(lo + per_palette - 1));
    range += ']';
    t.add_row({Table::num(seg.paper_index),
               Table::num(static_cast<std::uint64_t>(
                   seg.partition_rounds)),
               Table::num(static_cast<std::uint64_t>(seg_population[s])),
               Table::num(static_cast<double>(seg_population[s]) /
                              static_cast<double>(n),
                          4),
               range});
  }
  t.print(std::cout);

  print_header("Active-vertex decay (Lemma 6.1 backbone of the figure)");
  Table d({"round", "active", "fraction"});
  const auto& decay = result.metrics.active_per_round;
  for (std::size_t r = 0; r < decay.size();
       r += std::max<std::size_t>(1, decay.size() / 24)) {
    d.add_row({Table::num(static_cast<std::uint64_t>(r + 1)),
               Table::num(static_cast<std::uint64_t>(decay[r])),
               Table::num(static_cast<double>(decay[r]) /
                              static_cast<double>(n),
                          4)});
  }
  d.print(std::cout);

  std::cout << "\nVA = " << result.metrics.vertex_averaged()
            << " rounds, WC = " << result.metrics.worst_case()
            << " rounds, colors = " << result.num_colors << " (palette "
            << result.palette_bound << ")\n";
  std::cout << "Shape check: populations decay super-exponentially "
               "across segments; palettes are disjoint per segment.\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  valocal::bench::configure_engine_threads();
  return valocal::bench::run();
}
