// Common result type for all vertex-coloring algorithms.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "validate/validate.hpp"

namespace valocal {

struct ColoringResult {
  std::vector<int> color;        // per vertex, >= 0
  std::size_t num_colors = 0;    // distinct colors actually used
  std::size_t palette_bound = 0; // size of the palette the algorithm drew from
  Metrics metrics;
};

/// Runs a vertex-coloring LOCAL algorithm (outputs are the colors) and
/// assembles its result; the palette is algo.palette_bound().
template <class A>
ColoringResult run_coloring(const Graph& g, const A& algo,
                            RunOptions opt = {}) {
  auto run = run_local(g, algo, opt);
  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}

}  // namespace valocal
