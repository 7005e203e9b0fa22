#include "graph/stats.hpp"

#include <algorithm>
#include <ostream>

#include "graph/arboricity.hpp"

namespace valocal {
namespace {

std::size_t log2_bucket(std::size_t degree) {
  if (degree == 0) return 0;
  std::size_t bucket = 1;
  while ((std::size_t{1} << bucket) <= degree) ++bucket;
  return bucket;  // degree in [2^(bucket-1), 2^bucket)
}

}  // namespace

GraphStats compute_graph_stats(const Graph& g) {
  GraphStats s;
  s.n = g.num_vertices();
  s.m = g.num_edges();
  s.degree_hist_log2.assign(1, 0);
  for (Vertex v = 0; v < s.n; ++v) {
    const std::size_t d = g.degree(v);
    s.max_degree = std::max(s.max_degree, d);
    if (d == 0) ++s.num_isolated;
    const std::size_t bucket = log2_bucket(d);
    if (bucket >= s.degree_hist_log2.size())
      s.degree_hist_log2.resize(bucket + 1, 0);
    ++s.degree_hist_log2[bucket];
  }
  s.avg_degree =
      s.n == 0 ? 0.0
               : 2.0 * static_cast<double>(s.m) / static_cast<double>(s.n);
  s.arboricity_estimate = nash_williams_lb(g);
  return s;
}

void print_graph_stats(std::ostream& os, const GraphStats& s) {
  os << "stats: n=" << s.n << " m=" << s.m << " avg-deg=" << s.avg_degree
     << " max-deg=" << s.max_degree << " isolated=" << s.num_isolated
     << " arboricity>=" << s.arboricity_estimate
     << " (Nash-Williams)\n";
  os << "degree histogram (log2 buckets):\n";
  for (std::size_t b = 0; b < s.degree_hist_log2.size(); ++b) {
    if (s.degree_hist_log2[b] == 0) continue;
    if (b == 0)
      os << "  deg 0: ";
    else
      os << "  deg [" << (std::size_t{1} << (b - 1)) << ", "
         << (std::size_t{1} << b) << "): ";
    os << s.degree_hist_log2[b] << "\n";
  }
}

}  // namespace valocal
