// run_batch contract tests: the trial batcher must return, for every
// (threads, trial-count, regime) combination, results byte-identical to
// the plain serial loop `for (i) results[i] = run_trial(i)` — and when
// a TraceSink is installed on the caller, the observed event stream
// must equal the serial loop's stream (semantic fields), with each
// trial's run record contiguous and in trial order, never interleaved.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace valocal {
namespace {

// Randomized gossip: mixes neighbor state and the per-vertex RNG each
// round, terminating by coin flip — every field of the result depends
// on every preceding round, so any scheduling bug shows up as a
// byte-level mismatch.
struct GossipAlgo {
  struct State {
    std::uint64_t x = 0;
  };
  using Output = std::uint64_t;

  void init(Vertex v, const Graph&, State& s) const { s.x = v + 1; }

  bool step(Vertex, std::size_t, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const {
    std::uint64_t mix = next.x;
    for (std::size_t i = 0; i < view.degree(); ++i)
      mix = mix * 0x9e3779b97f4a7c15ULL + view.neighbor_state(i).x;
    next.x = mix ^ rng();
    return (rng() & 7) == 0;  // terminate w.p. 1/8 per round
  }

  Output output(Vertex, const State& s) const { return s.x; }
};

using GossipResult = RunResult<GossipAlgo>;

std::vector<std::uint64_t> states_of(const GossipResult& r) {
  std::vector<std::uint64_t> xs;
  xs.reserve(r.final_states.size());
  for (const auto& s : r.final_states) xs.push_back(s.x);
  return xs;
}

void expect_identical(const GossipResult& a, const GossipResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(states_of(a), states_of(b)) << what;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << what;
  EXPECT_EQ(a.metrics.active_per_round, b.metrics.active_per_round)
      << what;
}

TEST(Batch, MatchesSerialLoopForEveryThreadAndRegimeCombination) {
  const std::size_t num_trials = 7;
  const Graph g = gen::forest_union(300, 2, 99);
  const GossipAlgo algo;
  auto trial = [&](std::size_t i) {
    return run_local(g, algo,
                     {.seed = 100 + i, .want_final_states = true});
  };

  std::vector<GossipResult> reference(num_trials);
  for (std::size_t i = 0; i < num_trials; ++i) reference[i] = trial(i);

  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    // Unknown trial size shards per trial; huge trials that cannot fill
    // the pool run one after another with parallel rounds inside.
    for (const bool intra : {false, true}) {
      const BatchOptions opt{
          .num_threads = threads,
          .trial_vertices = intra ? std::size_t{1} << 16 : 0};
      const std::size_t trials =
          intra ? std::max<std::size_t>(1, threads - 1) : num_trials;
      EXPECT_EQ(detail_batch::use_per_trial(trials, threads, opt),
                !intra || threads == 1);
      const auto results = run_batch(trials, trial, opt);
      ASSERT_EQ(results.size(), trials);
      for (std::size_t i = 0; i < trials; ++i)
        expect_identical(results[i], reference[i],
                         "threads=" + std::to_string(threads) +
                             " intra=" + std::to_string(intra) +
                             " trial=" + std::to_string(i));
    }
  }
}

TEST(Batch, InheritsEngineThreadDefaultWhenUnset) {
  const Graph g = gen::forest_union(200, 2, 7);
  const GossipAlgo algo;
  auto trial = [&](std::size_t i) {
    return run_local(g, algo,
                     {.seed = 42 + i, .want_final_states = true});
  };
  std::vector<GossipResult> reference(4);
  for (std::size_t i = 0; i < 4; ++i) reference[i] = trial(i);

  set_engine_threads(4);
  const auto results = run_batch(4, trial);
  set_engine_threads(1);
  for (std::size_t i = 0; i < 4; ++i)
    expect_identical(results[i], reference[i],
                     "inherited trial=" + std::to_string(i));
}

/// Serializes the SEMANTIC content of the event stream (no wall-clock,
/// no worker load): equality of two logs means the sinks observed the
/// same runs in the same order with no interleaving.
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
  void on_phase_begin(const char* name) override {
    log << "phase+ " << name << "\n";
  }
  void on_phase_end(const char* name) override {
    log << "phase- " << name << "\n";
  }
};

TEST(Batch, TracedRunRecordsDoNotInterleave) {
  const std::size_t num_trials = 6;
  const GossipAlgo algo;
  // Distinguishable trials: trial i runs on its own graph size, so the
  // expected stream encodes the trial order via RunInfo::num_vertices
  // and the per-round active counts.
  std::vector<Graph> graphs;
  graphs.reserve(num_trials);
  for (std::size_t i = 0; i < num_trials; ++i)
    graphs.push_back(gen::forest_union(100 + 40 * i, 2, 17 + i));
  auto trial = [&](std::size_t i) {
    return run_local(graphs[i], algo,
                     {.seed = 500 + i, .want_final_states = true});
  };

  SemanticLog serial_log;
  std::vector<GossipResult> reference(num_trials);
  {
    trace::ScopedSink scoped(&serial_log);
    for (std::size_t i = 0; i < num_trials; ++i) reference[i] = trial(i);
  }
  ASSERT_FALSE(serial_log.log.str().empty());

  for (std::size_t threads : {2u, 4u, 8u}) {
    SemanticLog batch_log;
    std::vector<GossipResult> results;
    {
      trace::ScopedSink scoped(&batch_log);
      results = run_batch(num_trials, trial, {.num_threads = threads});
    }
    EXPECT_EQ(batch_log.log.str(), serial_log.log.str())
        << "threads=" << threads;
    for (std::size_t i = 0; i < num_trials; ++i)
      expect_identical(results[i], reference[i],
                       "traced threads=" + std::to_string(threads) +
                           " trial=" + std::to_string(i));
  }
}

TEST(Batch, WorkspaceReuseAcrossGraphSizesIsByteIdentical) {
  // The engine's thread-local scratch workspace is reused across
  // run_local calls. Alternating large/small graphs on the same thread
  // forces every pooled buffer to grow and shrink between runs; any
  // stale bytes leaking from a previous (larger) run show up as a
  // mismatch against the same trial computed in a different order.
  const GossipAlgo algo;
  const std::size_t sizes[] = {350, 60, 500, 40, 220};
  std::vector<Graph> graphs;
  graphs.reserve(std::size(sizes));
  for (std::size_t i = 0; i < std::size(sizes); ++i)
    graphs.push_back(gen::forest_union(sizes[i], 2, 31 + i));
  auto trial = [&](std::size_t i) {
    return run_local(graphs[i], algo,
                     {.seed = 900 + i, .want_final_states = true});
  };

  std::vector<GossipResult> reference(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) reference[i] = trial(i);

  // Recompute in reverse, twice, on this same thread: every run leases
  // the workspace the previous (differently-sized) run dirtied.
  for (std::size_t pass = 0; pass < 2; ++pass)
    for (std::size_t i = graphs.size(); i-- > 0;)
      expect_identical(trial(i), reference[i],
                       "reuse pass=" + std::to_string(pass) +
                           " trial=" + std::to_string(i));

  // Sharded batch: each pool worker's workspace sees several sizes.
  const auto results =
      run_batch(graphs.size(), trial, {.num_threads = 2});
  for (std::size_t i = 0; i < graphs.size(); ++i)
    expect_identical(results[i], reference[i],
                     "sharded trial=" + std::to_string(i));
}

TEST(Batch, EmptyAndSingleTrialEdgeCases) {
  const Graph g = gen::ring(32);
  const GossipAlgo algo;
  auto trial = [&](std::size_t i) {
    return run_local(g, algo, {.seed = i, .want_final_states = true});
  };
  EXPECT_TRUE(run_batch(0, trial, {.num_threads = 4}).empty());
  const auto one = run_batch(1, trial, {.num_threads = 4});
  ASSERT_EQ(one.size(), 1u);
  expect_identical(one[0], trial(0), "single-trial batch");
}

}  // namespace
}  // namespace valocal
