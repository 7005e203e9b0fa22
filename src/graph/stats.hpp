// One-pass streaming graph statistics for the large-graph substrate:
// a single O(n) sweep over the CSR offsets yields the degree
// distribution, extremes, and the Nash-Williams density bound — the
// cheap "what did I just build/load" summary for scale 24-28
// instances. The exact degeneracy (arboricity.hpp) is a separate call:
// it peels only the hub subgraph on skewed graphs, but the whole graph
// on near-regular ones.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "graph/graph.hpp"

namespace valocal {

struct GraphStats {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t max_degree = 0;
  std::size_t num_isolated = 0;  // degree-0 vertices
  double avg_degree = 0.0;       // 2m / n
  /// Log2-bucketed degree distribution: bucket 0 counts degree-0
  /// vertices, bucket k >= 1 counts degrees in [2^(k-1), 2^k).
  std::vector<std::uint64_t> degree_hist_log2;
  /// Nash-Williams density bound ceil(m / (n - 1)): a lower bound on
  /// the arboricity, exact on dense-forest-like families. The upper
  /// bound needs the degeneracy peel — see arboricity_upper_bound().
  std::size_t arboricity_estimate = 0;
};

/// One pass over the CSR offsets; no allocation beyond the histogram.
GraphStats compute_graph_stats(const Graph& g);

/// Human-readable block (the CLI's --stats output).
void print_graph_stats(std::ostream& os, const GraphStats& s);

}  // namespace valocal
