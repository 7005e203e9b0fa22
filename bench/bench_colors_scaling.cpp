// The COLORS column of Table 1: how each algorithm's palette scales
// with the arboricity at fixed n. The paper's rows promise O(a),
// O(a^2), O(a^2 log n), O(ka), O(ka^2), Delta+1 and O(a log log n);
// this bench sweeps a on forest unions and prints the measured distinct
// colors so the polynomial degrees can be read off (each 2x step in a
// should ~2x the O(a) rows and ~4x the O(a^2) rows).
#include <iostream>

#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/rand_a_loglog.hpp"
#include "bench_common.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

int run() {
  ValidationTracker tracker;
  const std::size_t n = 1 << 13;

  print_header("Colors vs arboricity at n = 2^13 (forest unions)");
  Table t({"a", "O(a): oa", "O(2a): ka k=2", "O(a^2): a2",
           "O(a^2 log n): a2logn", "O(2a^2): ka2 k=2", "Delta+1",
           "O(a loglog n) rand"});
  for (std::size_t a : {1u, 2u, 4u, 8u, 16u}) {
    const Graph g = gen::forest_union(n, a, 1000 + a);
    const PartitionParams params{.arboricity = a, .epsilon = 1.0};
    // Each column runs under its registry name (`entry`).
    auto colors = [&](const char* entry, auto compute) {
      const ColoringResult r = labelled(entry, compute);
      tracker.expect(is_proper_coloring(g, r.color), entry);
      return Table::num(static_cast<std::uint64_t>(r.num_colors));
    };
    t.add_row(
        {Table::num(static_cast<std::uint64_t>(a)),
         colors("oa", [&] { return compute_coloring_oa(g, params); }),
         colors("ka", [&] { return compute_coloring_ka(g, params, 2); }),
         colors("a2", [&] { return compute_coloring_a2(g, params); }),
         colors("a2logn", [&] { return compute_coloring_a2logn(g, params); }),
         colors("ka2", [&] { return compute_coloring_ka2(g, params, 2); }),
         colors("delta_plus1", [&] { return compute_delta_plus1(g, params); }),
         colors("rand_a_loglog",
                [&] { return compute_rand_a_loglog(g, params, a); })});
  }
  t.print(std::cout);

  std::cout << "\nShape check: the oa/ka columns double per doubling of "
               "a (linear); a2/a2logn/ka2 quadruple (quadratic); the "
               "Delta+1 column tracks the realized maximum degree.\n"
               "Saturation note: once c*A^2 log A >= n (here a = 16, "
               "A = 48), a cover-free reduction step cannot shrink the "
               "ID palette at all, so the quadratic rows honestly "
               "saturate at n — the paper's O(a^2 log n) bound exceeds "
               "n in that regime.\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  valocal::bench::configure_engine_threads();
  return valocal::bench::run();
}
