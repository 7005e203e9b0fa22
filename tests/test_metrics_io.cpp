#include "sim/metrics_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "algo/coloring_ka2.hpp"
#include "algo/partition.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"

namespace valocal {
namespace {

TEST(MetricsIo, DecayCsv) {
  Metrics m;
  m.active_per_round = {10, 6, 2};
  std::ostringstream os;
  write_decay_csv(os, m);
  EXPECT_EQ(os.str(), "round,active\n1,10\n2,6\n3,2\n");
}

TEST(MetricsIo, RoundsCsvAndHistogram) {
  Metrics m;
  m.rounds = {1, 3, 3, 2};
  std::ostringstream rounds;
  write_rounds_csv(rounds, m);
  EXPECT_EQ(rounds.str(), "vertex,rounds\n0,1\n1,3\n2,3\n3,2\n");
  std::ostringstream hist;
  write_rounds_histogram_csv(hist, m);
  EXPECT_EQ(hist.str(), "rounds,count\n1,1\n2,1\n3,2\n");
}

// Regression: the histogram used to start at r = 1, silently dropping
// zero-round entries — the column no longer summed to n.
TEST(MetricsIo, HistogramKeepsBucketZero) {
  Metrics m;
  m.rounds = {0, 0, 2, 1, 0};
  std::ostringstream hist;
  write_rounds_histogram_csv(hist, m);
  EXPECT_EQ(hist.str(), "rounds,count\n0,3\n1,1\n2,1\n");  // 3+1+1 = n
}

TEST(MetricsIo, RoundTimingsCsv) {
  Metrics m;
  m.active_per_round = {4, 2};
  m.parked_per_round = {1, 0};
  m.round_wall_ns = {100, 50};
  std::ostringstream os;
  write_round_timings_csv(os, m);
  EXPECT_EQ(os.str(),
            "round,active,awake,wall_ns\n1,4,3,100\n2,2,2,50\n");
  // Hand-built metrics without timing or parking data degrade to
  // zeros / awake == active rather than misaligning rows.
  Metrics untimed;
  untimed.active_per_round = {3};
  std::ostringstream os2;
  write_round_timings_csv(os2, untimed);
  EXPECT_EQ(os2.str(), "round,active,awake,wall_ns\n1,3,3,0\n");
}

// Golden-file check for the awake column on a REAL wake-scheduled run:
// the parked counts must line up with active_per_round and sum to
// skipped_steps, so awake = active - parked is exact per round.
TEST(MetricsIo, RoundTimingsAwakeColumnMatchesEngine) {
  const Graph g = gen::forest_union(800, 2, 13);
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const ColoringKa2Algo algo(g.num_vertices(), params, 2);
  const auto run = run_local(g, algo);
  const Metrics& m = run.metrics;
  ASSERT_GT(m.skipped_steps, 0u) << "fixture parked nothing";
  ASSERT_EQ(m.parked_per_round.size(), m.active_per_round.size());
  std::uint64_t parked_total = 0;
  for (auto p : m.parked_per_round) parked_total += p;
  EXPECT_EQ(parked_total, m.skipped_steps);
  std::ostringstream os;
  write_round_timings_csv(os, m);
  // Re-derive the expected bytes from the decay + parked series.
  std::ostringstream want;
  want << "round,active,awake,wall_ns\n";
  for (std::size_t i = 0; i < m.active_per_round.size(); ++i)
    want << i + 1 << ',' << m.active_per_round[i] << ','
         << m.active_per_round[i] - m.parked_per_round[i] << ','
         << m.round_wall_ns[i] << '\n';
  EXPECT_EQ(os.str(), want.str());
}

// The integer tables are formatted with std::to_chars, block by block;
// their bytes must be what ostream insertion of the same fields gives,
// at the extremes of every column type and across block boundaries
// (the rounds table below spans several blocks).
TEST(MetricsIo, IntegerTablesMatchOstreamFormatting) {
  constexpr std::uint32_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kSize = std::numeric_limits<std::size_t>::max();
  Metrics m;
  m.rounds = {0, kU32, 7, kU32, 0};
  for (std::uint32_t i = 0; i < 8000; ++i) m.rounds.push_back(kU32 - i);
  m.active_per_round = {0, kSize, 5, kSize - 1};
  m.parked_per_round = {0, 1, kSize, 0};
  m.round_wall_ns = {std::numeric_limits<std::uint64_t>::max(), 0, 3};
  m.edge_active_per_round = {kSize, 0, 12};

  std::ostringstream want_rounds, want_decay, want_edges, want_timings;
  want_rounds << "vertex,rounds\n";
  for (std::size_t v = 0; v < m.rounds.size(); ++v)
    want_rounds << v << ',' << m.rounds[v] << '\n';
  want_decay << "round,active\n";
  want_timings << "round,active,awake,wall_ns\n";
  for (std::size_t i = 0; i < m.active_per_round.size(); ++i) {
    const std::size_t a = m.active_per_round[i];
    const std::size_t p = m.parked_per_round[i];
    want_decay << i + 1 << ',' << a << '\n';
    want_timings << i + 1 << ',' << a << ',' << (a >= p ? a - p : 0) << ','
                 << (i < m.round_wall_ns.size() ? m.round_wall_ns[i] : 0)
                 << '\n';
  }
  want_edges << "round,active_edges\n";
  for (std::size_t i = 0; i < m.edge_active_per_round.size(); ++i)
    want_edges << i + 1 << ',' << m.edge_active_per_round[i] << '\n';

  std::ostringstream rounds, decay, edges, timings;
  write_rounds_csv(rounds, m);
  write_decay_csv(decay, m);
  write_edge_decay_csv(edges, m);
  write_round_timings_csv(timings, m);
  ASSERT_GT(rounds.str().size(), std::size_t{3} << 12);
  EXPECT_EQ(rounds.str(), want_rounds.str());
  EXPECT_EQ(decay.str(), want_decay.str());
  EXPECT_EQ(edges.str(), want_edges.str());
  EXPECT_EQ(timings.str(), want_timings.str());

  // Histogram buckets: 0 and the count at a bucket past 2^16.
  Metrics h;
  h.rounds = {0, 70000, 0, 70000, 70000};
  std::ostringstream hist;
  write_rounds_histogram_csv(hist, h);
  EXPECT_EQ(hist.str(), "rounds,count\n0,2\n70000,3\n");
}

TEST(MetricsIo, EdgeDecayAndMeasuresCsv) {
  // Path on 3 vertices: edges {0,1}, {1,2}; r = (1, 3, 2) gives edge
  // costs max(1,3) = 3 and max(3,2) = 3.
  const Graph g(3, {{0, 1}, {1, 2}});
  Metrics m;
  m.rounds = {1, 3, 2};
  m.active_per_round = {3, 2, 1};
  m.finalize(g);
  EXPECT_EQ(m.round_sum(), 6u);
  EXPECT_EQ(m.worst_case(), 3u);
  EXPECT_EQ(m.edge_round_sum(), 6u);
  EXPECT_DOUBLE_EQ(m.edge_averaged(), 3.0);
  EXPECT_EQ(m.awake_sum(), 6u);
  std::ostringstream decay;
  write_edge_decay_csv(decay, m);
  EXPECT_EQ(decay.str(), "round,active_edges\n1,2\n2,2\n3,2\n");
  std::ostringstream measures;
  write_measures_csv(measures, m);
  EXPECT_EQ(measures.str(),
            "measure,value\nround_sum,6\nvertex_averaged,2\n"
            "edge_round_sum,6\nedge_averaged,3\nworst_case,3\n"
            "awake_sum,6\n");
}

// The one-pass summary must report exactly what per-call scans of
// `rounds` and `active_per_round` report: byte-identical accounting,
// just O(1).
TEST(MetricsIo, FinalizedAccessorsMatchLegacyScans) {
  const Graph g = gen::forest_union(200, 2, 191);
  const auto result = compute_h_partition(g, {.arboricity = 2});
  const Metrics& m = result.metrics;
  std::uint64_t round_sum = 0;
  std::size_t worst_case = 0;
  for (auto r : m.rounds) {
    round_sum += r;
    worst_case = std::max<std::size_t>(worst_case, r);
  }
  std::uint64_t stepped = 0;
  for (auto a : m.active_per_round) stepped += a;
  ASSERT_GT(round_sum, 0u);
  EXPECT_EQ(m.round_sum(), round_sum);
  EXPECT_EQ(m.worst_case(), worst_case);
  EXPECT_DOUBLE_EQ(m.vertex_averaged(),
                   static_cast<double>(round_sum) /
                       static_cast<double>(m.rounds.size()));
  EXPECT_EQ(m.awake_sum(), stepped - m.skipped_steps);
}

TEST(MetricsIo, RealExecutionRoundTrips) {
  const Graph g = gen::forest_union(200, 2, 191);
  const auto result = compute_h_partition(g, {.arboricity = 2});
  std::ostringstream os;
  write_decay_csv(os, result.metrics);
  // Header + one line per round.
  std::size_t lines = 0;
  for (char c : os.str()) lines += c == '\n';
  EXPECT_EQ(lines, result.metrics.active_per_round.size() + 1);
}

TEST(Generators, RandomRegularDegreeProfile) {
  const Graph g = gen::random_regular(400, 6, 193);
  EXPECT_LE(g.max_degree(), 6u);
  // Most vertices reach full degree (only rejected pairs fall short).
  std::size_t full = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    full += g.degree(v) == 6;
  EXPECT_GE(full, 300u);
}

TEST(Generators, RandomBipartiteIsBipartite) {
  const Graph g = gen::random_bipartite(50, 70, 300, 197);
  EXPECT_EQ(g.num_edges(), 300u);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.edge_u(e), 50u);
    EXPECT_GE(g.edge_v(e), 50u);
  }
}

}  // namespace
}  // namespace valocal
