// Unit tests for the supporting infrastructure: Metrics arithmetic,
// induced subgraphs, the RNG streams, the table printer, and the
// engine's StepResult::kCommit semantics.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace valocal {
namespace {

TEST(Metrics, Arithmetic) {
  Metrics m;
  m.rounds = {1, 2, 3, 4};
  m.finalize(gen::path(4));
  EXPECT_EQ(m.round_sum(), 10u);
  EXPECT_DOUBLE_EQ(m.vertex_averaged(), 2.5);
  EXPECT_EQ(m.worst_case(), 4u);
}

TEST(Metrics, EmptyIsZero) {
  Metrics m;
  EXPECT_EQ(m.round_sum(), 0u);
  EXPECT_DOUBLE_EQ(m.vertex_averaged(), 0.0);
  EXPECT_EQ(m.worst_case(), 0u);
}

TEST(Subgraph, InducedStructure) {
  const Graph g = gen::grid(3, 3);  // ids row-major
  const std::vector<Vertex> members{0, 1, 3, 4};  // top-left square
  const Graph sub = Graph::induced(g, members);
  EXPECT_EQ(sub.num_vertices(), 4u);
  EXPECT_EQ(sub.num_edges(), 4u);  // a 4-cycle
  // Member i is vertex i: an edge of G[S] is an edge of g between the
  // corresponding members.
  for (EdgeId e = 0; e < sub.num_edges(); ++e)
    EXPECT_TRUE(g.has_edge(members[sub.edge_u(e)], members[sub.edge_v(e)]));
}

TEST(Subgraph, PredicateSelection) {
  const Graph g = gen::path(10);
  std::vector<Vertex> evens;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) evens.push_back(v);
  const Graph sub = Graph::induced(g, evens);
  EXPECT_EQ(sub.num_vertices(), 5u);
  EXPECT_EQ(sub.num_edges(), 0u);  // evens are pairwise non-adjacent
}

TEST(Subgraph, EmptySelection) {
  const Graph g = gen::ring(5);
  const Graph sub = Graph::induced(g, {});
  EXPECT_EQ(sub.num_vertices(), 0u);
  EXPECT_EQ(sub.num_edges(), 0u);
}

TEST(Rng, VertexStreamsAreIndependentAndStable) {
  auto r1 = vertex_rng(7, 0);
  auto r2 = vertex_rng(7, 0);
  auto r3 = vertex_rng(7, 1);
  EXPECT_EQ(r1(), r2());
  auto r1b = vertex_rng(7, 0);
  EXPECT_NE(r1b(), r3());
}

TEST(Rng, BelowIsUniformish) {
  Xoshiro256 rng(123);
  std::vector<std::size_t> buckets(10, 0);
  const std::size_t draws = 100000;
  for (std::size_t i = 0; i < draws; ++i) ++buckets[rng.below(10)];
  for (auto b : buckets) {
    EXPECT_GT(b, draws / 10 - draws / 50);
    EXPECT_LT(b, draws / 10 + draws / 50);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, Uniform01Range) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22222\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(-7), "-7");
}

// kCommit freezes r(v) AND the output but keeps the vertex executing;
// kTerminate later must overwrite neither the committed round nor the
// committed output (outputs are snapshotted at commit time).
struct CommitThenStop {
  struct State {
    int ticks = 0;
  };
  using Output = int;
  void init(Vertex, const Graph&, State&) const {}
  StepResult step(Vertex v, std::size_t round, const RoundView<State>&,
                  State& next, Xoshiro256&) const {
    ++next.ticks;
    if (v == 0) {
      if (round == 2) return StepResult::kCommit;
      if (round == 5) return StepResult::kTerminate;
      return StepResult::kContinue;
    }
    return round >= 3 ? StepResult::kTerminate : StepResult::kContinue;
  }
  Output output(Vertex, const State& s) const { return s.ticks; }
};

TEST(Engine, CommitFreezesRoundsButKeepsRunning) {
  const Graph g = gen::path(2);
  const auto result =
      run_local(g, CommitThenStop{}, {.want_final_states = true});
  EXPECT_EQ(result.metrics.rounds[0], 2u);      // frozen at commit
  EXPECT_EQ(result.metrics.rounds[1], 3u);
  EXPECT_EQ(result.outputs[0], 2);              // snapshot at commit...
  EXPECT_EQ(result.final_states[0].ticks, 5);   // ...yet it ran 5 rounds
  EXPECT_EQ(result.outputs[1], 3);
}

}  // namespace
}  // namespace valocal
