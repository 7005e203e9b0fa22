#include "sim/metrics.hpp"

#include "graph/graph.hpp"

namespace valocal {

const char* measure_name(Measure m) {
  switch (m) {
    case Measure::kVertexAveraged:
      return "vertex-averaged";
    case Measure::kEdgeAveraged:
      return "edge-averaged";
    case Measure::kWorstCase:
      return "worst-case";
    case Measure::kAwake:
      return "awake";
  }
  return "?";
}

const char* measure_tag(Measure m) {
  switch (m) {
    case Measure::kVertexAveraged:
      return "VA";
    case Measure::kEdgeAveraged:
      return "EA";
    case Measure::kWorstCase:
      return "WC";
    case Measure::kAwake:
      return "AWK";
  }
  return "?";
}

void Metrics::finalize(const Graph& g) {
  MeasureSummary s;
  s.num_vertices = rounds.size();
  s.num_edges = g.num_edges();
  for (auto r : rounds) {
    s.round_sum += r;
    if (r > s.worst_case) s.worst_case = r;
  }
  // Edge costs in one O(m) pass that needs no edge ids: bucket each
  // edge at its cost max(r(u), r(v)), then suffix-sum so
  // edge_active_per_round[i] is m_{i+1} = #{e : cost(e) >= i + 1},
  // mirroring active_per_round's decay-sequence convention. Hand-built
  // metrics may carry fewer entries than the graph has vertices;
  // missing vertices count as r = 0 rather than faulting.
  edge_active_per_round.assign(s.worst_case, 0);
  const std::size_t nr = rounds.size();
  g.for_each_edge([&](Vertex u, Vertex v) {
    const std::uint32_t ru = u < nr ? rounds[u] : 0;
    const std::uint32_t rv = v < nr ? rounds[v] : 0;
    const std::uint32_t cost = ru > rv ? ru : rv;
    s.edge_round_sum += cost;
    if (cost > 0) ++edge_active_per_round[cost - 1];
  });
  for (std::size_t i = edge_active_per_round.size(); i > 1; --i)
    edge_active_per_round[i - 2] += edge_active_per_round[i - 1];
  std::uint64_t stepped = 0;
  for (auto a : active_per_round) stepped += a;
  s.awake_sum = stepped >= skipped_steps ? stepped - skipped_steps : 0;
  summary = s;
}

}  // namespace valocal
