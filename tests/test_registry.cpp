// The algorithm registry is the single dispatch surface for the CLI,
// the benches, and batch trials, so this test sweeps the WHOLE catalog:
// every spec must run on a compatible small graph, satisfy its own
// validator, and (for deterministic specs) be byte-identical across
// repeated runs and engine thread counts. Single-run and batched
// dispatch must agree — the regression that motivated the registry was
// the CLI's two hand-written dispatch ladders drifting apart.
#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "registry/registry.hpp"
#include "sim/network.hpp"

namespace valocal {
namespace {

using registry::AlgoParams;
using registry::AlgoSpec;
using registry::Bound;
using registry::GraphFamily;
using registry::Registry;
using registry::SolveOutcome;

/// Smallest graph each spec accepts: a ring for the ring-only specs
/// (arboricity 2 per the paper's convention), a 2-forest union
/// otherwise. Both are tiny so the full-catalog sweeps stay fast.
Graph compatible_graph(const AlgoSpec& spec) {
  if (spec.family == GraphFamily::kRing) return gen::ring(64);
  return gen::forest_union(96, 2, 7);
}

AlgoParams default_params() {
  return AlgoParams{.arboricity = 2, .epsilon = 1.0, .seed = 1};
}

TEST(Registry, CatalogIsCompleteAndUnique) {
  const Registry& reg = Registry::instance();
  const auto names = reg.names();
  EXPECT_GE(names.size(), 20u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const std::string& name : names) {
    const AlgoSpec* s = reg.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name, name);
    EXPECT_EQ(&reg.at(name), s);
    EXPECT_TRUE(s->run != nullptr) << name;
    EXPECT_FALSE(s->display.empty()) << name;
    // Structured bounds: every spec claims at least one measure-tagged
    // bound, every declared bound carries a valid measure tag and a
    // non-empty expression, and no measure is claimed twice.
    EXPECT_FALSE(s->bounds.empty()) << name;
    std::set<Measure> seen_measures;
    for (const Bound& b : s->bounds) {
      EXPECT_TRUE(b.measure == Measure::kVertexAveraged ||
                  b.measure == Measure::kEdgeAveraged ||
                  b.measure == Measure::kWorstCase ||
                  b.measure == Measure::kAwake)
          << name << ": invalid measure tag";
      EXPECT_STRNE(measure_name(b.measure), "?") << name;
      EXPECT_STRNE(measure_tag(b.measure), "?") << name;
      EXPECT_FALSE(b.expr.empty()) << name;
      EXPECT_TRUE(seen_measures.insert(b.measure).second)
          << name << ": duplicate bound for " << measure_name(b.measure);
    }
    // The 2018 catalog convention: every entry claims at least its
    // vertex-averaged and worst-case complexity.
    EXPECT_NE(s->bound_for(Measure::kVertexAveraged), nullptr) << name;
    EXPECT_NE(s->bound_for(Measure::kWorstCase), nullptr) << name;
  }
  // Names the CLI has always accepted must stay reachable.
  for (const char* name :
       {"partition", "a2logn", "ka", "delta_plus1", "mis", "edge_coloring",
        "matching", "rand_delta_plus1", "luby", "be08", "leader", "ring3"})
    EXPECT_NE(reg.find(name), nullptr) << name;
  EXPECT_EQ(reg.find("no_such_algorithm"), nullptr);
}

TEST(Registry, SuggestsNearestNameForTypos) {
  const Registry& reg = Registry::instance();
  EXPECT_EQ(registry::edit_distance("", "abc"), 3u);
  EXPECT_EQ(registry::edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(registry::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(reg.suggest("a2lgn"), "a2logn");
  EXPECT_EQ(reg.suggest("luby_mis"), "luby");
  EXPECT_EQ(reg.suggest("mis"), "mis");  // exact names map to themselves
}

TEST(Registry, FamilyGateAcceptsRingsOnly) {
  EXPECT_TRUE(registry::family_ok(GraphFamily::kAny, gen::ring(8)));
  EXPECT_TRUE(registry::family_ok(GraphFamily::kRing, gen::ring(8)));
  EXPECT_FALSE(
      registry::family_ok(GraphFamily::kRing, gen::forest_union(16, 2, 3)));
  EXPECT_FALSE(registry::family_ok(GraphFamily::kRing, gen::star_union(16, 4)));
}

TEST(Registry, EverySpecSolvesAndValidatesOnASmallGraph) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    ASSERT_TRUE(registry::family_ok(spec.family, g));
    const SolveOutcome o = spec.run(g, default_params());
    EXPECT_TRUE(o.valid) << o.summary;
    EXPECT_TRUE(o.aux_valid) << o.summary;
    EXPECT_TRUE(o.ok());
    EXPECT_FALSE(o.summary.empty());
    // Labels are what --dot and batch agreement compare. Their unit is
    // problem-specific (per vertex, per edge, a single leader id), but
    // vertex problems must be per-vertex — that is the --dot contract.
    EXPECT_FALSE(o.labels.empty());
    if (spec.problem == registry::Problem::kVertexColoring ||
        spec.problem == registry::Problem::kMis) {
      EXPECT_EQ(o.labels.size(), g.num_vertices());
    }
    EXPECT_EQ(o.metrics.rounds.size(), g.num_vertices());
  }
}

TEST(Registry, DeterministicSpecsAreByteStableAcrossRunsAndThreads) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    if (!spec.deterministic) continue;
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    std::vector<SolveOutcome> outs;
    for (const std::size_t threads : {1u, 4u, 1u, 4u}) {
      set_engine_threads(threads);
      outs.push_back(spec.run(g, default_params()));
    }
    set_engine_threads(1);
    for (std::size_t i = 1; i < outs.size(); ++i) {
      EXPECT_EQ(outs[0].labels, outs[i].labels);
      EXPECT_EQ(outs[0].metrics.rounds, outs[i].metrics.rounds);
      EXPECT_EQ(outs[0].metrics.active_per_round,
                outs[i].metrics.active_per_round);
      EXPECT_EQ(outs[0].summary, outs[i].summary);
      EXPECT_EQ(outs[0].num_colors, outs[i].num_colors);
    }
  }
}

TEST(Registry, EverySpecIsByteStableUnderWakeScheduling) {
  // Wake scheduling parks vertices whose next_wake hint names a future
  // round and skips their no-op steps; it is always on except inside
  // ScopedNoParking, the no-calendar reference. Every spec must produce
  // the same labels, r(v), decay series and summary by default, at
  // every thread count, as that reference. The catalog-wide
  // skipped-step total proves the sweep actually parked vertices
  // rather than passing vacuously.
  std::uint64_t skipped = 0;
  for (const AlgoSpec& spec : Registry::instance().all()) {
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    AlgoParams p = default_params();
    p.seed = 41;
    const SolveOutcome ref = [&] {
      ScopedNoParking no_parking;
      return spec.run(g, p);
    }();
    EXPECT_EQ(ref.metrics.skipped_steps, 0u);
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      set_engine_threads(threads);
      const SolveOutcome o = spec.run(g, p);
      EXPECT_EQ(o.labels, ref.labels);
      EXPECT_EQ(o.metrics.rounds, ref.metrics.rounds);
      EXPECT_EQ(o.metrics.active_per_round, ref.metrics.active_per_round);
      EXPECT_EQ(o.summary, ref.summary);
      skipped += o.metrics.skipped_steps;
    }
    set_engine_threads(1);
  }
  EXPECT_GT(skipped, 0u) << "no catalog entry parked a vertex";
}

TEST(Registry, Bgko22EntriesHoldEdgeMeasuresByteStableAcrossEngines) {
  // The BGKO'22 entries are the catalog's edge-averaged flagship: the
  // whole point of their rows is the EA column, so the edge-cost
  // rollup (edge_round_sum, the m_i decay series, and the derived
  // average) must be byte-stable across every engine configuration —
  // threads 1/4, with and without parking — on a
  // bounded-degree graph large enough that the randomized schedules
  // have nontrivial tails.
  const Graph g = gen::torus(24, 24);
  for (const char* name : {"bgko_mis", "bgko_matching"}) {
    SCOPED_TRACE(name);
    const AlgoSpec* spec = Registry::instance().find(name);
    ASSERT_NE(spec, nullptr);
    AlgoParams p = default_params();
    p.seed = 97;
    const SolveOutcome ref = spec->run(g, p);
    ASSERT_TRUE(ref.valid) << ref.summary;
    EXPECT_GT(ref.metrics.edge_round_sum(), 0u);
    EXPECT_GT(ref.metrics.edge_averaged(), 0.0);
    EXPECT_FALSE(ref.metrics.edge_active_per_round.empty());
    for (const bool parking : {true, false}) {
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("parking=" + std::to_string(parking) +
                     " threads=" + std::to_string(threads));
        set_engine_threads(threads);
        const SolveOutcome o = [&] {
          if (parking) return spec->run(g, p);
          ScopedNoParking no_parking;
          return spec->run(g, p);
        }();
        EXPECT_EQ(o.labels, ref.labels);
        EXPECT_EQ(o.metrics.rounds, ref.metrics.rounds);
        EXPECT_EQ(o.metrics.edge_active_per_round,
                  ref.metrics.edge_active_per_round);
        EXPECT_EQ(o.metrics.edge_round_sum(), ref.metrics.edge_round_sum());
        EXPECT_EQ(o.metrics.round_sum(), ref.metrics.round_sum());
        EXPECT_EQ(o.metrics.worst_case(), ref.metrics.worst_case());
        EXPECT_EQ(o.metrics.awake_sum(), ref.metrics.awake_sum());
      }
    }
    set_engine_threads(1);
  }
}

TEST(Registry, RandomizedSpecsArePureFunctionsOfTheSeed) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    if (spec.deterministic) continue;
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    AlgoParams p = default_params();
    p.seed = 41;
    const SolveOutcome a = spec.run(g, p);
    const SolveOutcome b = spec.run(g, p);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
    EXPECT_EQ(a.summary, b.summary);
  }
}

// Regression for the bug class the registry exists to prevent: the
// CLI's single-run path and --batch-trials path must accept the SAME
// set of names and produce the same result for the same seed (batch
// trial i runs on seed + i, so trial 0 == the single run).
TEST(Registry, SingleRunAndBatchDispatchAgree) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    const AlgoParams p = default_params();
    const SolveOutcome single = spec.run(g, p);
    const auto trials = registry::run_trials(spec, g, p, 3);
    ASSERT_EQ(trials.size(), 3u);
    EXPECT_EQ(trials[0].labels, single.labels);
    EXPECT_EQ(trials[0].metrics.rounds, single.metrics.rounds);
    EXPECT_EQ(trials[0].summary, single.summary);
    for (const SolveOutcome& o : trials) EXPECT_TRUE(o.ok()) << o.summary;
    if (spec.deterministic) {
      // Seed is inert for deterministic specs: all trials identical.
      EXPECT_EQ(trials[1].labels, single.labels);
      EXPECT_EQ(trials[2].labels, single.labels);
    }
  }
}

TEST(Registry, BatchTrialsAreThreadCountInvariant) {
  const Registry& reg = Registry::instance();
  const AlgoSpec& spec = reg.at("rand_delta_plus1");
  const Graph g = compatible_graph(spec);
  set_engine_threads(1);
  const auto serial = registry::run_trials(spec, g, default_params(), 8);
  set_engine_threads(4);
  const auto parallel = registry::run_trials(spec, g, default_params(), 8);
  set_engine_threads(1);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].labels, parallel[i].labels);
    EXPECT_EQ(serial[i].metrics.rounds, parallel[i].metrics.rounds);
  }
}

TEST(Registry, RowPlansAreOrderedWithinEachSection) {
  using registry::BenchSection;
  const Registry& reg = Registry::instance();
  for (const BenchSection section :
       {BenchSection::kTable1Adversarial, BenchSection::kTable1Eta,
        BenchSection::kTable1Star, BenchSection::kTable1Rand,
        BenchSection::kTable2Adversarial, BenchSection::kTable2Families,
        BenchSection::kRandTails}) {
    const auto plans = reg.rows_for(section);
    EXPECT_FALSE(plans.empty());
    for (std::size_t i = 1; i < plans.size(); ++i)
      EXPECT_LT(plans[i - 1].row->order, plans[i].row->order);
  }
}

}  // namespace
}  // namespace valocal
