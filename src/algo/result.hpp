// The result type of each problem the catalog solves, and the run
// assemblies that turn a LOCAL run into one. Every entry of a problem
// (the 2018 entries, the worst-case baselines and the BGKO'22 entries)
// returns the same shape, so the registry's outcome builders
// (registry/spec_util.hpp) read each problem's solution in one place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "util/assertx.hpp"
#include "validate/validate.hpp"

namespace valocal {

struct ColoringResult {
  std::vector<int> color;        // per vertex, >= 0
  std::size_t num_colors = 0;    // distinct colors actually used
  std::size_t palette_bound = 0; // size of the palette the algorithm drew from
  Metrics metrics;
};

struct EdgeColoringResult {
  std::vector<int> color;  // per edge id
  std::size_t num_colors = 0;
  std::size_t palette_bound = 0;
  Metrics metrics;
};

struct MisResult {
  std::vector<bool> in_set;
  Metrics metrics;
};

struct MatchingResult {
  std::vector<bool> in_matching;  // per edge id
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

/// Runs an MIS LOCAL algorithm whose output is a status (1 in the set,
/// -1 dominated, 0 undecided) and assembles its result. A vertex left
/// undecided is an invariant failure that names `entry`.
template <class A>
MisResult run_mis(const Graph& g, const A& algo, const char* entry,
                  RunOptions opt = {}) {
  auto run = run_local(g, algo, opt);
  MisResult result;
  result.in_set.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (run.outputs[v] == 0)
      std::fprintf(stderr, "valocal: %s left vertex %zu undecided\n", entry,
                   static_cast<std::size_t>(v));
    VALOCAL_ENSURE(run.outputs[v] != 0, "MIS left a vertex undecided");
    result.in_set[v] = run.outputs[v] == 1;
  }
  result.metrics = std::move(run.metrics);
  return result;
}

/// Per-edge colors from a run's per-port outputs (port i of v is edge
/// g.incident_edges(v)[i]). Both endpoints of an edge must agree; a
/// port still < 0 leaves the edge to its other endpoint.
template <class PortColors>
std::vector<int> per_edge_colors(const Graph& g,
                                 const std::vector<PortColors>& ports) {
  std::vector<int> color(g.num_edges(), -1);
  const EdgeIndex ix = g.edge_index();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto edges = ix.incident_edges(v);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto c = static_cast<int>(ports[v][i]);
      if (c < 0) continue;
      if (color[edges[i]] >= 0)
        VALOCAL_ENSURE(color[edges[i]] == c,
                       "endpoints disagree on an edge color");
      color[edges[i]] = c;
    }
  }
  return color;
}

/// The (2Delta-1)-edge-coloring palette, floored at 1: at Delta <= 1
/// no two edges touch, so one color suffices.
inline std::size_t edge_palette_bound(std::size_t max_degree) {
  return std::max<std::size_t>(2, 2 * max_degree) - 1;
}

/// Runs a (2Delta-1)-edge-coloring LOCAL algorithm (outputs are
/// per-port colors, each below edge_palette_bound) and assembles its
/// per-edge result.
template <class A>
EdgeColoringResult run_edge_coloring(const Graph& g, const A& algo,
                                     RunOptions opt = {}) {
  auto run = run_local(g, algo, opt);
  EdgeColoringResult result;
  result.color = per_edge_colors(g, run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = edge_palette_bound(g.max_degree());
  result.metrics = std::move(run.metrics);
  return result;
}

}  // namespace valocal
