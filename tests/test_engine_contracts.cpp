// Contract / failure-path coverage: the engine's round cap, the
// mailbox cap, and assorted REQUIRE guards across the public API.
#include <gtest/gtest.h>

#include "algo/partition.hpp"
#include "coverfree/coverfree.hpp"
#include "graph/generators.hpp"
#include "mailbox.hpp"
#include "sim/network.hpp"

namespace valocal {
namespace {

struct NeverTerminates {
  struct State {
    int x = 0;
  };
  using Output = int;
  void init(Vertex, const Graph&, State&) const {}
  bool step(Vertex, std::size_t, const RoundView<State>&, State&,
            Xoshiro256&) const {
    return false;
  }
  Output output(Vertex, const State& s) const { return s.x; }
};

TEST(EngineContracts, RoundCapAborts) {
  const Graph g = gen::ring(4);
  EXPECT_DEATH(
      (void)run_local(g, NeverTerminates{}, {.max_rounds = 50}),
      "round cap");
}

// Regression: the cap used to abort with a bare message; the
// diagnostic must now name the round reached and the size of the
// still-active set, so runaway algorithms are findable.
TEST(EngineContracts, RoundCapDiagnosticReportsRoundAndActiveCount) {
  const Graph g = gen::ring(4);
  EXPECT_DEATH(
      (void)run_local(g, NeverTerminates{}, {.max_rounds = 50}),
      "round 51 with 4 vertices still active \\(cap 50\\)");
}

TEST(EngineContracts, RoundCapAbortsUnderParallelEngine) {
  const Graph g = gen::ring(4);
  // Workers are alive when the death test starts: the test main's
  // "threadsafe" style re-executes the binary, so the child builds its
  // own pool.
  const ScopedEngineConfig config({.threads = 2, .grain = 1});
  EXPECT_DEATH((void)run_local(g, NeverTerminates{}, {.max_rounds = 50}),
               "round 51 with 4 vertices still active");
}

struct MailboxNeverTerminates {
  struct State {
    int x = 0;
  };
  struct Message {};
  using Output = int;
  void init(Vertex, const Graph&, State&, Outbox<Message>&) const {}
  bool step(Vertex, std::size_t, const Inbox<Message>&, State&,
            Outbox<Message>&, Xoshiro256&) const {
    return false;
  }
  Output output(Vertex, const State& s) const { return s.x; }
};

TEST(EngineContracts, MailboxRoundCapAborts) {
  const Graph g = gen::ring(4);
  EXPECT_DEATH((void)run_mailbox(g, MailboxNeverTerminates{}, 1, 50),
               "round cap");
}

TEST(EngineContracts, PartitionParamValidation) {
  const Graph g = gen::ring(4);
  EXPECT_DEATH(
      (void)compute_h_partition(g, {.arboricity = 2, .epsilon = 0.0}),
      "epsilon");
  EXPECT_DEATH(
      (void)compute_h_partition(g, {.arboricity = 0, .epsilon = 1.0}),
      "arboricity");
}

TEST(EngineContracts, CoverFreeTooManyParentsAborts) {
  const CoverFreeFamily f(50, 2);
  const std::vector<std::uint64_t> too_many{1, 2, 3};
  EXPECT_DEATH((void)f.pick_escaping(0, too_many), "parents");
}

TEST(EngineContracts, GraphRejectsBadEdges) {
  EXPECT_DEATH((void)Graph(2, {{0, 0}}), "self-loop");
  EXPECT_DEATH((void)Graph(2, {{0, 5}}), "out of range");
  EXPECT_DEATH((void)Graph(3, {{0, 1}, {1, 0}}), "duplicate");
}

TEST(EngineContracts, TerminatedVerticesNeverStepAgain) {
  // A vertex terminating in round r must not be stepped in r+1; the
  // probe would flip its published flag if it were.
  struct Probe {
    struct State {
      int steps = 0;
    };
    using Output = int;
    void init(Vertex, const Graph&, State&) const {}
    bool step(Vertex v, std::size_t round, const RoundView<State>&,
              State& next, Xoshiro256&) const {
      ++next.steps;
      return v == 0 ? round >= 1 : round >= 4;
    }
    Output output(Vertex, const State& s) const { return s.steps; }
  };
  const Graph g = gen::path(2);
  const auto result = run_local(g, Probe{});
  EXPECT_EQ(result.outputs[0], 1);
  EXPECT_EQ(result.outputs[1], 4);
}

}  // namespace
}  // namespace valocal
