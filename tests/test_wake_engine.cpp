// Wake-scheduled engine contract tests: for every hinted algorithm,
// the default (wake-scheduled) run must be byte-identical to the
// no-calendar reference (ScopedNoParking) — outputs, r(v),
// active_per_round, and the semantic trace event stream — for every
// threads x grain combination, while Metrics::skipped_steps records
// the simulator work actually saved. (test_frontier_engine runs the
// same reference comparison over unhinted and RNG-drawing algorithms.)
// Also pins the ScopedNoParking hook, the wake calendar, and the
// engine's shared per-thread workspace against nested runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/coloring_oa.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/hset_composition.hpp"
#include "algo/mis.hpp"
#include "algo/partition.hpp"
#include "algo/rings.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/wake_calendar.hpp"
#include "trace/trace.hpp"

namespace valocal {
namespace {

// Deterministic per-H-set subroutine: a fixed budget of same-set
// mixing rounds. Every output bit depends on every preceding round's
// neighborhood, so a single mis-skipped step changes the bytes.
struct MixSub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t budget = 6;

  std::size_t sub_rounds() const { return budget; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return false;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

// RNG-drawing subroutine with coin-flip early termination: the final
// bytes encode the exact per-vertex RNG stream positions, so wake
// scheduling must preserve the streams bit-for-bit to pass.
struct CoinSub {
  struct State {
    std::uint64_t x = 0;
  };
  using Output = std::uint64_t;

  std::size_t budget = 8;

  std::size_t sub_rounds() const { return budget; }

  bool step(Vertex, std::size_t, const SubView<State>& view, State& next,
            Xoshiro256& rng) const {
    std::uint64_t mix = next.x;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i))
        mix = mix * 0x9e3779b97f4a7c15ULL + view.neighbor_state(i).x;
    next.x = mix ^ rng();
    return (rng() & 3) == 0;  // early exit w.p. 1/4 per sub-round
  }

  Output output(Vertex, const State& s) const { return s.x; }
};

// The trait plumbing the engine dispatches on, pinned at compile time.
static_assert(WakeHinted<HSetComposition<MixSub>>);
static_assert(WakeHinted<HSetComposition<CoinSub>>);
static_assert(WakeHinted<ColoringKaAlgo>);
static_assert(WakeHinted<ColoringKa2Algo>);
static_assert(WakeHinted<RingColoring3Algo>);
static_assert(WakeHinted<PartitionAlgo>);
static_assert(!WakeHinted<LeaderElectionAlgo>);
static_assert(!WakeHinted<LubyMisAlgo>);
static_assert(!algorithm_uses_rng<HSetComposition<MixSub>>);
static_assert(algorithm_uses_rng<HSetComposition<CoinSub>>);
static_assert(!algorithm_uses_rng<ColoringKaAlgo>);

/// Serializes the SEMANTIC trace fields (everything the determinism
/// contract covers; no wall-clock, no worker load, no asleep split):
/// log equality means the wake-scheduled and no-calendar engines are
/// observationally identical to any tooling built on the trace layer.
struct SemanticLog final : trace::TraceSink {
  std::ostringstream log;

  void on_run_begin(const trace::RunInfo& info,
                    std::span<const char* const> phases) override {
    log << "begin " << info.engine << " n=" << info.num_vertices
        << " seed=" << info.seed << " phases=" << phases.size() << "\n";
  }
  void on_round(const trace::RoundEvent& e) override {
    log << "round " << e.round << " active=" << e.active
        << " charged=" << e.charged << " committed=" << e.committed
        << " terminated=" << e.terminated << " vol=" << e.volume_bytes;
    for (std::size_t p : e.phase_charged) log << " p" << p;
    log << "\n";
  }
  void on_run_end(const trace::RunEndEvent& e) override {
    log << "end rounds=" << e.rounds << " sum=" << e.round_sum
        << " wc=" << e.worst_case << "\n";
  }
};

template <class A>
std::string traced_log(const Graph& g, const A& algo, RunOptions opt) {
  SemanticLog log;
  {
    trace::ScopedSink scoped(&log);
    (void)run_local(g, algo, opt);
  }
  return log.log.str();
}

/// The no-calendar reference: `algo` run with parking disarmed.
template <class A>
RunResult<A> run_unparked(const Graph& g, const A& algo,
                          RunOptions opt = {}) {
  ScopedNoParking no_parking;
  return run_local(g, algo, opt);
}

/// The core equivalence sweep: the serial no-calendar reference vs
/// default (wake-scheduled) runs for threads {1,2,4} x grain
/// {0 (automatic),1,5,7,64}. Returns the default runs' skipped_steps
/// (identical across all combinations by construction).
template <class A>
std::uint64_t expect_hint_equivalence(const Graph& g, const A& algo,
                                      std::uint64_t seed) {
  const RunOptions off{.seed = seed, .num_threads = 1};
  const auto ref = run_unparked(g, algo, off);
  EXPECT_EQ(ref.metrics.skipped_steps, 0u)
      << "the no-parking reference must never skip a step";
  std::string ref_log;
  {
    ScopedNoParking no_parking;
    ref_log = traced_log(g, algo, off);
  }
  EXPECT_FALSE(ref_log.empty());

  std::uint64_t skipped = 0;
  bool first = true;
  for (std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t grain : {0u, 1u, 5u, 7u, 64u}) {
      const RunOptions on{
          .seed = seed, .num_threads = threads, .grain = grain};
      const auto hinted = run_local(g, algo, on);
      const std::string what = "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain);
      EXPECT_EQ(hinted.outputs, ref.outputs) << what;
      EXPECT_EQ(hinted.metrics.rounds, ref.metrics.rounds) << what;
      EXPECT_EQ(hinted.metrics.active_per_round,
                ref.metrics.active_per_round)
          << what;
      EXPECT_EQ(traced_log(g, algo, on), ref_log) << what;
      if (first) {
        skipped = hinted.metrics.skipped_steps;
        first = false;
      } else {
        EXPECT_EQ(hinted.metrics.skipped_steps, skipped)
            << what << ": skipped_steps must be schedule-independent";
      }
    }
  }
  return skipped;
}

TEST(WakeEngine, CompositionWithDeterministicSubIsByteIdentical) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  for (const Graph& g :
       {gen::dary_tree(1500, 4), gen::forest_union(900, 2, 11)}) {
    const HSetComposition<MixSub> algo(g.num_vertices(), params,
                                       MixSub{});
    const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
    EXPECT_GT(skipped, 0u)
        << "composition blocks must actually park idle vertices";
  }
}

TEST(WakeEngine, CompositionWithRngSubPreservesStreamsAcrossSeeds) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(700, 2, 29);
  const HSetComposition<CoinSub> algo(g.num_vertices(), params,
                                      CoinSub{});
  for (std::uint64_t seed : {1u, 77u, 4242u, 999983u}) {
    const auto skipped = expect_hint_equivalence(g, algo, seed);
    EXPECT_GT(skipped, 0u) << "seed=" << seed;
  }
}

TEST(WakeEngine, ColoringKaIsByteIdentical) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(800, 2, 5);
  const ColoringKaAlgo algo(g.num_vertices(), params, 2);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

TEST(WakeEngine, ColoringKa2IsByteIdentical) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(800, 2, 13);
  const ColoringKa2Algo algo(g.num_vertices(), params, 2);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

TEST(WakeEngine, RingColoring3IsByteIdentical) {
  const Graph g = gen::ring(512);
  const RingColoring3Algo algo(g.num_vertices());
  // Colors 0..2 sleep through the retirement slots, so some vertex
  // parks in every non-degenerate run.
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

// The composed entries that park H-set members through the
// (Delta+1)-plan's no-op rounds. Each must match the no-parking
// reference byte for byte, skip steps itself, and park members during the plan: the
// registry sweep only checks the catalog-wide total, which one entry's
// hint silently falling back to round + 1 would not move.
const PartitionParams kPlanParams{.arboricity = 3, .epsilon = 1.0};

std::vector<Graph> plan_graphs() {
  // forest_union(2^14, 3) and the (A+1)-ary adversarial tree.
  return {gen::forest_union(1 << 14, 3, 5),
          gen::dary_tree(1 << 14, kPlanParams.threshold() + 1)};
}

/// A with its hint instrumented: counts the hints that park an H-set
/// member in an `aux_plan` round.
template <class A>
class CountsPlanParking : public A {
 public:
  using A::A;

  std::size_t next_wake(Vertex v, std::size_t round,
                        const typename A::State& s) const {
    const std::size_t wake = A::next_wake(v, round, s);
    const std::string_view phase =
        this->trace_phases()[this->trace_phase_of(v, round, s)];
    if (s.hset > 0 && wake > round + 1 && phase == "aux_plan")
      plan_parks_.fetch_add(1, std::memory_order_relaxed);
    return wake;
  }

  std::size_t plan_parks() const { return plan_parks_.load(); }

 private:
  mutable std::atomic<std::size_t> plan_parks_{0};
};

template <class A>
void expect_entry_parks(const Graph& g, const CountsPlanParking<A>& algo) {
  const auto unparked = run_unparked(g, algo);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const auto run = run_local(g, algo, {.num_threads = threads});
    EXPECT_EQ(run.outputs, unparked.outputs);
    EXPECT_EQ(run.metrics.rounds, unparked.metrics.rounds);
    EXPECT_EQ(run.metrics.active_per_round,
              unparked.metrics.active_per_round);
    EXPECT_GT(run.metrics.skipped_steps, 0u);
  }
  EXPECT_GT(algo.plan_parks(), 0u);
}

TEST(WakeEngine, OaParksThroughThePlan) {
  for (const Graph& g : plan_graphs())
    expect_entry_parks(g, CountsPlanParking<ColoringOaAlgo>(
                              g.num_vertices(), kPlanParams));
}

TEST(WakeEngine, DeltaPlusOneParksThroughThePlan) {
  for (const Graph& g : plan_graphs())
    expect_entry_parks(g, CountsPlanParking<DeltaPlusOneAlgo>(
                              g.num_vertices(), g.max_degree(),
                              kPlanParams));
}

TEST(WakeEngine, MisParksThroughThePlan) {
  for (const Graph& g : plan_graphs())
    expect_entry_parks(
        g, CountsPlanParking<MisAlgo>(g.num_vertices(), kPlanParams));
}

TEST(WakeEngine, TrivialHintsNeverPark) {
  // Procedure Partition's hint is necessarily round + 1 (the join
  // decision is data-dependent every round): the wake-scheduled path
  // must run with an empty calendar and still be byte-identical.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1200, 4);
  const PartitionAlgo algo(params);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_EQ(skipped, 0u);
}

TEST(WakeEngine, NoParkingScopeDisarmsParkingUntilItEnds) {
  // Wake scheduling has no switch but this test/bench hook: inside a
  // ScopedNoParking nothing parks, and leaving the scope (nested or
  // not) restores parking. The two engines agree byte for byte.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(600, 4);
  const HSetComposition<MixSub> algo(g.num_vertices(), params, MixSub{});

  const auto before = run_local(g, algo);
  EXPECT_GT(before.metrics.skipped_steps, 0u);
  EXPECT_FALSE(before.metrics.parked_per_round.empty());
  {
    ScopedNoParking no_parking;
    const auto unparked = run_local(g, algo);
    EXPECT_EQ(unparked.metrics.skipped_steps, 0u);
    EXPECT_TRUE(unparked.metrics.parked_per_round.empty());
    EXPECT_EQ(unparked.outputs, before.outputs);
    EXPECT_EQ(unparked.metrics.rounds, before.metrics.rounds);
    EXPECT_EQ(unparked.metrics.active_per_round,
              before.metrics.active_per_round);
    {
      ScopedNoParking nested;
      EXPECT_EQ(run_local(g, algo).metrics.skipped_steps, 0u);
    }
    EXPECT_EQ(run_local(g, algo).metrics.skipped_steps, 0u)
        << "leaving a nested scope must keep the outer one in force";
  }
  const auto after = run_local(g, algo);
  EXPECT_EQ(after.metrics.skipped_steps, before.metrics.skipped_steps);
  EXPECT_EQ(after.metrics.parked_per_round,
            before.metrics.parked_per_round);
}

TEST(WakeEngine, UnhintedAlgorithmsNeverPark) {
  // LeaderElectionAlgo declares no next_wake: the default engine must
  // compile down to the no-calendar engine (nothing skipped).
  const Graph g = gen::ring(64);
  const LeaderElectionAlgo algo;
  const auto unparked = run_unparked(g, algo);
  const auto by_default = run_local(g, algo);
  EXPECT_EQ(by_default.outputs, unparked.outputs);
  EXPECT_EQ(by_default.metrics.rounds, unparked.metrics.rounds);
  EXPECT_EQ(by_default.metrics.active_per_round,
            unparked.metrics.active_per_round);
  EXPECT_EQ(by_default.metrics.skipped_steps, 0u);
}

// A hinted outer algorithm whose step, once, runs a whole inner
// run_local on a different State type (RingColoring3Algo, itself
// hinted). Every State type shares the thread's one engine workspace,
// so the inner run must lease the fallback workspace; if it reused the
// outer's, the outer's awake bitset and calendar would be clobbered
// mid-round.
struct NestedRunRecord {
  bool ran = false;
  bool inner_pooled = true;
  RunResult<RingColoring3Algo> inner;
};

struct NestingAlgo {
  struct State {
    std::uint64_t x = 0;
  };
  using Output = std::uint64_t;

  const Graph* inner_graph = nullptr;  // null: never nest
  NestedRunRecord* record = nullptr;

  void init(Vertex v, const Graph&, State& s) const { s.x = v + 1; }

  // The state changes only on rounds divisible by 4, and a vertex
  // terminates in round 4 * (1 + v % 5), so every other step is a
  // no-op and next_wake may skip to the next multiple of 4.
  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    if (inner_graph != nullptr && v == 0 && round == 1 && !record->ran) {
      detail_engine::ScratchLease<detail_engine::EngineWorkspace> probe;
      record->inner_pooled = probe.pooled();
      const RingColoring3Algo inner(inner_graph->num_vertices());
      record->inner = run_local(*inner_graph, inner, {.seed = 9});
      record->ran = true;
    }
    if (round % 4 != 0) return false;
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + round;
    for (std::size_t i = 0; i < view.degree(); ++i)
      mix += view.neighbor_state(i).x;
    next.x = mix;
    return round >= 4 * (1 + v % 5);
  }

  std::size_t next_wake(Vertex, std::size_t round, const State&) const {
    return (round / 4 + 1) * 4;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

static_assert(WakeHinted<NestingAlgo>);

TEST(WakeEngine, NestedRunOnAnotherStateTypeTakesTheFallbackWorkspace) {
  const Graph outer_g = gen::forest_union(400, 2, 3);
  const Graph inner_g = gen::ring(300);

  NestedRunRecord record;
  const NestingAlgo nesting{.inner_graph = &inner_g, .record = &record};
  const auto nested = run_local(outer_g, nesting, {.num_threads = 1});
  ASSERT_TRUE(record.ran);
  EXPECT_FALSE(record.inner_pooled)
      << "the inner run must not lease the outer run's workspace";

  const auto plain = run_local(outer_g, NestingAlgo{}, {.num_threads = 1});
  const auto inner_plain =
      run_local(inner_g, RingColoring3Algo(inner_g.num_vertices()),
                {.seed = 9});
  EXPECT_GT(plain.metrics.skipped_steps, 0u);
  EXPECT_GT(inner_plain.metrics.skipped_steps, 0u);

  EXPECT_EQ(nested.outputs, plain.outputs);
  EXPECT_EQ(nested.metrics.rounds, plain.metrics.rounds);
  EXPECT_EQ(nested.metrics.active_per_round, plain.metrics.active_per_round);
  EXPECT_EQ(nested.metrics.skipped_steps, plain.metrics.skipped_steps);
  EXPECT_EQ(record.inner.outputs, inner_plain.outputs);
  EXPECT_EQ(record.inner.metrics.rounds, inner_plain.metrics.rounds);
  EXPECT_EQ(record.inner.metrics.active_per_round,
            inner_plain.metrics.active_per_round);

  // After the nested run the thread's workspace is free again.
  detail_engine::ScratchLease<detail_engine::EngineWorkspace> after;
  EXPECT_TRUE(after.pooled());
}

std::vector<Vertex> sorted(std::vector<Vertex> vs) {
  std::sort(vs.begin(), vs.end());
  return vs;
}

TEST(WakeCalendar, PopsBucketsAndTracksSleepers) {
  WakeCalendar cal;
  cal.reset(1);
  EXPECT_EQ(cal.sleeping(), 0u);

  cal.schedule(9, 3);
  cal.schedule(2, 3);
  cal.schedule(5, 2);
  cal.schedule(7, 3);
  EXPECT_EQ(cal.sleeping(), 4u);

  std::size_t visited = 0;
  cal.for_each_sleeping([&](Vertex) { ++visited; });
  EXPECT_EQ(visited, 4u);

  EXPECT_TRUE(cal.take(1).empty());
  EXPECT_EQ(cal.take(2), (std::vector<Vertex>{5}));
  EXPECT_EQ(cal.sleeping(), 3u);
  EXPECT_EQ(sorted(cal.take(3)), (std::vector<Vertex>{2, 7, 9}));
  EXPECT_EQ(cal.sleeping(), 0u);
  EXPECT_TRUE(cal.take(4).empty());
}

TEST(WakeCalendar, CompactionKeepsLongRunsBounded) {
  // A long run with a short wake horizon: every round parks one vertex
  // two rounds out. Compaction must keep this correct indefinitely.
  WakeCalendar cal;
  cal.reset(1);
  for (std::size_t round = 1; round <= 1000; ++round) {
    const auto& woken = cal.take(round);
    if (round > 2) {
      ASSERT_EQ(woken.size(), 1u) << "round " << round;
      EXPECT_EQ(woken[0], static_cast<Vertex>(round - 2));
    }
    cal.schedule(static_cast<Vertex>(round), round + 2);
  }
  EXPECT_EQ(cal.sleeping(), 2u);
}

TEST(WakeCalendar, InterleavedSchedulesPopEachVertexOnce) {
  // Several scheduling rounds target the same buckets. take() must
  // return each bucket's exact multiset (in any order).
  WakeCalendar cal;
  cal.reset(1);
  const std::size_t waves = 5, span = 7, n = 200;
  for (std::size_t w = 0; w < waves; ++w)
    for (Vertex v = static_cast<Vertex>(w); v < n;
         v += static_cast<Vertex>(waves))
      cal.schedule(v, 2 + (v % span));
  EXPECT_EQ(cal.sleeping(), n);

  std::vector<bool> seen(n, false);
  for (std::size_t round = 1; round <= 1 + span; ++round) {
    const auto& woken = cal.take(round);
    for (const Vertex v : woken) {
      EXPECT_EQ(v % span, round - 2) << "vertex in wrong bucket";
      EXPECT_FALSE(seen[v]) << "vertex popped twice";
      seen[v] = true;
    }
  }
  EXPECT_EQ(cal.sleeping(), 0u);
  for (Vertex v = 0; v < n; ++v) EXPECT_TRUE(seen[v]) << "lost " << v;
}

TEST(WakeCalendar, ResetClearsPendingWakes) {
  WakeCalendar cal;
  cal.reset(1);
  cal.schedule(1, 5);
  cal.schedule(2, 9);
  cal.reset(1);
  EXPECT_EQ(cal.sleeping(), 0u);
  for (std::size_t round = 1; round <= 10; ++round)
    EXPECT_TRUE(cal.take(round).empty()) << "round " << round;
}

}  // namespace
}  // namespace valocal
