// Frontier-representation contract tests: run_local must produce
// byte-identical outputs, r(v), and active_per_round under every
// forced frontier mode (dense / sparse / calendar) and under the
// measured auto switch, for every threads x grain combination — the
// representation is a throughput knob, never a semantic one. Every
// mode but forced sparse also parks hinted algorithms' idle vertices
// (wake scheduling). The trace layer's per-round mode labels and the
// run-end switch count are checked for consistency: forced modes pin
// the label and report zero switches; auto's labels follow the awake
// fraction and the switch count equals the label changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/hset_composition.hpp"
#include "algo/partition.hpp"
#include "algo/rings.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace valocal {
namespace {

// Deterministic wait-heavy workload (mirrors bench_common's): a
// composition whose sub terminates after 2 of 24 budgeted sub-rounds,
// so unjoined vertices idle through most of every block — the regime
// where auto picks the calendar representation.
struct IdleSub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t sub_rounds() const { return 24; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return t >= 1;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

constexpr FrontierMode kModes[] = {FrontierMode::kAuto,
                                   FrontierMode::kDense,
                                   FrontierMode::kSparse,
                                   FrontierMode::kCalendar};

/// Records the per-round representation labels and the run-end switch
/// count (the two new trace fields this suite pins down).
struct ModeLog final : trace::TraceSink {
  std::vector<std::uint8_t> labels;
  std::uint64_t switches = 0;
  void on_round(const trace::RoundEvent& e) override {
    labels.push_back(e.frontier_mode);
  }
  void on_run_end(const trace::RunEndEvent& e) override {
    switches = e.frontier_switches;
  }
};

/// Sweeps every mode x threads x grain combination against the forced
/// sparse serial reference (the no-calendar engine) and checks the
/// semantic triple.
template <class A>
void expect_mode_equivalence(const Graph& g, const A& algo,
                             std::uint64_t seed) {
  const auto ref = run_local(g, algo,
                             {.seed = seed,
                              .num_threads = 1,
                              .frontier_mode = FrontierMode::kSparse});
  for (const FrontierMode mode : kModes) {
    for (std::size_t threads : {1u, 4u}) {
      for (std::size_t grain : {0u, 7u}) {
        const auto run = run_local(g, algo,
                                   {.seed = seed,
                                    .num_threads = threads,
                                    .grain = grain,
                                    .frontier_mode = mode});
        const std::string what =
            std::string("mode=") + frontier_mode_name(mode) +
            " threads=" + std::to_string(threads) +
            " grain=" + std::to_string(grain);
        EXPECT_EQ(run.outputs, ref.outputs) << what;
        EXPECT_EQ(run.metrics.rounds, ref.metrics.rounds) << what;
        EXPECT_EQ(run.metrics.active_per_round,
                  ref.metrics.active_per_round)
            << what;
      }
    }
  }
}

template <class A>
ModeLog traced_modes(const Graph& g, const A& algo, RunOptions opt) {
  ModeLog log;
  {
    trace::ScopedSink scoped(&log);
    (void)run_local(g, algo, opt);
  }
  return log;
}

TEST(FrontierEngine, RingColoringIsByteIdenticalAcrossModes) {
  const Graph g = gen::ring(2048);
  const RingColoring3Algo algo(g.num_vertices());
  expect_mode_equivalence(g, algo, 0x5eed);
}

TEST(FrontierEngine, RandomizedMisOnRmatIsByteIdenticalAcrossModes) {
  // RNG-drawing algorithm: identical outputs across modes prove the
  // per-vertex streams advance identically regardless of iteration
  // shape (flat scan vs list walk).
  const Graph g = gen::rmat(gen::parse_rmat_spec("12x8", 7));
  const LubyMisAlgo algo;
  for (std::uint64_t seed : {1u, 4242u})
    expect_mode_equivalence(g, algo, seed);
}

TEST(FrontierEngine, WaitHeavyCompositionIsByteIdenticalAcrossModes) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1500, params.threshold() + 1);
  const HSetComposition<IdleSub> algo(g.num_vertices(), params,
                                      IdleSub{});
  expect_mode_equivalence(g, algo, 0x5eed);
}

TEST(FrontierEngine, ForcedModesPinRoundLabelsAndReportNoSwitches) {
  const Graph g = gen::ring(512);
  const RingColoring3Algo algo(g.num_vertices());
  for (const FrontierMode mode :
       {FrontierMode::kDense, FrontierMode::kSparse,
        FrontierMode::kCalendar}) {
    const ModeLog log =
        traced_modes(g, algo, {.seed = 1, .frontier_mode = mode});
    ASSERT_FALSE(log.labels.empty());
    for (const std::uint8_t label : log.labels)
      EXPECT_EQ(label, static_cast<std::uint8_t>(mode))
          << "forced " << frontier_mode_name(mode);
    EXPECT_EQ(log.switches, 0u) << frontier_mode_name(mode);
  }
}

TEST(FrontierEngine, AutoLabelsFollowAwakeFractionAndCountSwitches) {
  // Wait-heavy composition: the run starts dense (all
  // awake), then drops below the threshold into calendar rounds as
  // blocks park — auto must record that trajectory and count each
  // label change exactly once, identically for every schedule.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1500, params.threshold() + 1);
  const HSetComposition<IdleSub> algo(g.num_vertices(), params,
                                      IdleSub{});
  const RunOptions base{.seed = 1, .frontier_mode = FrontierMode::kAuto};
  const ModeLog ref = traced_modes(g, algo, base);
  ASSERT_FALSE(ref.labels.empty());
  EXPECT_EQ(ref.labels.front(),
            static_cast<std::uint8_t>(FrontierMode::kDense))
      << "round 1 has every vertex awake";
  std::uint64_t changes = 0;
  bool saw_calendar = false;
  for (std::size_t i = 1; i < ref.labels.size(); ++i) {
    if (ref.labels[i] != ref.labels[i - 1]) ++changes;
    saw_calendar |= ref.labels[i] ==
                    static_cast<std::uint8_t>(FrontierMode::kCalendar);
  }
  EXPECT_EQ(ref.switches, changes);
  EXPECT_GT(ref.switches, 0u);
  EXPECT_TRUE(saw_calendar)
      << "wait-heavy run must reach the calendar representation";

  for (std::size_t threads : {2u, 4u}) {
    RunOptions opt = base;
    opt.num_threads = threads;
    const ModeLog run = traced_modes(g, algo, opt);
    EXPECT_EQ(run.labels, ref.labels) << "threads=" << threads;
    EXPECT_EQ(run.switches, ref.switches) << "threads=" << threads;
  }
}

TEST(FrontierEngine, ProcessWideDefaultIsInheritedAndOverridable) {
  const Graph g = gen::ring(256);
  const RingColoring3Algo algo(g.num_vertices());
  const auto ref = run_local(
      g, algo, {.seed = 1, .frontier_mode = FrontierMode::kSparse});

  set_engine_frontier_mode(FrontierMode::kDense);
  const ModeLog inherited = traced_modes(g, algo, {.seed = 1});
  const ModeLog overridden = traced_modes(
      g, algo, {.seed = 1, .frontier_mode = FrontierMode::kSparse});
  set_engine_frontier_mode(FrontierMode::kAuto);

  for (const std::uint8_t label : inherited.labels)
    EXPECT_EQ(label, static_cast<std::uint8_t>(FrontierMode::kDense));
  for (const std::uint8_t label : overridden.labels)
    EXPECT_EQ(label, static_cast<std::uint8_t>(FrontierMode::kSparse));
  const auto back = run_local(g, algo, {.seed = 1});
  EXPECT_EQ(back.outputs, ref.outputs);
}

TEST(FrontierEngine, ModeNamesAreStable) {
  // Trace run records and the repository benchmark's run record print
  // these names; the numeric values are decoded from bench fixture
  // names by scripts/perf_snapshot.py.
  const char* const names[] = {"auto", "dense", "sparse", "calendar"};
  for (std::size_t i = 0; i < std::size(kModes); ++i) {
    EXPECT_STREQ(frontier_mode_name(kModes[i]), names[i]);
    EXPECT_EQ(static_cast<int>(kModes[i]), static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace valocal
