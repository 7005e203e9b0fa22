// The algorithm registry is the single dispatch surface for the CLI,
// the benches, and batch trials, so this test sweeps the WHOLE catalog:
// every spec must run on a compatible small graph, satisfy its own
// validator, and (for deterministic specs) be byte-identical across
// repeated runs and engine thread counts. Single-run and batched
// dispatch must agree — the regression that motivated the registry was
// the CLI's two hand-written dispatch ladders drifting apart.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algo/edge_coloring.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "registry/registry.hpp"
#include "registry/spec_util.hpp"
#include "sim/network.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "validate/validate.hpp"

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

// The registry opens one trace span per dispatched run, named after the
// spec, so every engine run an entry makes (nested base cases included)
// is labelled with the entry's registry name.
TEST(Registry, EveryRunRecordCarriesItsRegistryName) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    trace::TraceCollector collector;
    {
      trace::ScopedSink sink(&collector);
      ASSERT_TRUE(spec.run(g, default_params()).ok());
    }
    ASSERT_FALSE(collector.runs().empty());
    for (const trace::RunRecord& run : collector.runs())
      EXPECT_EQ(run.span.substr(0, run.span.find('/')), spec.name)
          << run.span;
  }
}

// At Delta <= 2 every coloring entry reports a palette its colors fit
// in, and the entries whose palette is a function of Delta alone report
// exactly the problem's bound: 2Delta-1 floored at 1 for edge coloring,
// Delta+1 for the (Delta+1)-coloring entries, 3 for ring3. The other
// vertex-coloring palettes depend on a, n and the entry's parameters.
TEST(Registry, ColoringPalettesMeetTheProblemBoundAtSmallDelta) {
  const std::vector<Graph> graphs = {
      Graph(5, {}),                                  // Delta = 0
      Graph(8, {{0, 1}, {2, 3}, {4, 5}, {6, 7}}),    // Delta = 1
      gen::path(9),                                  // Delta = 2
      gen::ring(12)};                                // Delta = 2, ring3
  const std::set<std::string> delta_plus_one = {"delta_plus1",
                                                "rand_delta_plus1",
                                                "wc_delta"};
  for (const AlgoSpec& spec : Registry::instance().all()) {
    const bool edge = spec.problem == registry::Problem::kEdgeColoring;
    if (!edge && spec.problem != registry::Problem::kVertexColoring)
      continue;
    for (const Graph& g : graphs) {
      if (!registry::family_ok(spec.family, g)) continue;
      const std::size_t delta = g.max_degree();
      SCOPED_TRACE(spec.name + " at Delta " + std::to_string(delta) +
                   ", n " + std::to_string(g.num_vertices()));
      const SolveOutcome o = spec.run(g, default_params());
      EXPECT_TRUE(o.ok()) << o.summary;
      EXPECT_GE(o.palette_bound, 1u);
      EXPECT_LE(o.num_colors, o.palette_bound) << o.summary;
      if (edge) {
        EXPECT_EQ(o.palette_bound, delta <= 1 ? 1 : 2 * delta - 1);
      } else if (delta_plus_one.count(spec.name)) {
        EXPECT_EQ(o.palette_bound, delta + 1);
      } else if (spec.name == "ring3") {
        EXPECT_EQ(o.palette_bound, 3u);
      }
    }
  }
}

// Each problem's shared outcome builder runs the problem's validator:
// a corrupted solution must read valid == false (and the summary NO).
TEST(Registry, SharedOutcomeBuildersRejectACorruptedLabeling) {
  const Graph g = gen::forest_union(96, 2, 7);
  const PartitionParams params = default_params().partition();

  MisResult mis = compute_mis(g, params);
  ASSERT_TRUE(registry::mis_outcome(g, "MIS", mis).valid);
  Vertex member = 0;
  while (!mis.in_set[member] || g.degree(member) == 0) ++member;
  mis.in_set[g.neighbors(member)[0]] = true;  // two adjacent members
  const SolveOutcome bad_mis = registry::mis_outcome(g, "MIS", mis);
  EXPECT_FALSE(bad_mis.valid);
  EXPECT_EQ(bad_mis.summary, "MIS valid=NO");

  MatchingResult mm = compute_matching(g, params);
  ASSERT_TRUE(registry::matching_outcome(g, "matching", mm).valid);
  EdgeId matched = 0;
  while (!mm.in_matching[matched]) ++matched;
  mm.in_matching[matched] = false;  // two free adjacent endpoints
  const SolveOutcome bad_mm = registry::matching_outcome(g, "matching", mm);
  EXPECT_FALSE(bad_mm.valid);
  EXPECT_EQ(bad_mm.summary, "matching maximal=NO");

  EdgeColoringResult ec = compute_edge_coloring(g, params);
  ASSERT_TRUE(registry::edge_coloring_outcome(g, "ec", ec).ok());
  Vertex hub = 0;
  while (g.degree(hub) < 2) ++hub;
  const auto ports = g.incident_edges(hub);
  ec.color[ports[1]] = ec.color[ports[0]];  // two edges share a color
  const SolveOutcome bad_ec = registry::edge_coloring_outcome(g, "ec", ec);
  EXPECT_FALSE(bad_ec.valid);
  EXPECT_NE(bad_ec.summary.find("proper=NO"), std::string::npos);
  ec.num_colors = ec.palette_bound + 1;
  EXPECT_FALSE(registry::edge_coloring_outcome(g, "ec", ec).aux_valid);
}

TEST(Registry, DeterministicSpecsAreByteStableAcrossRunsAndThreads) {
  for (const AlgoSpec& spec : Registry::instance().all()) {
    if (!spec.deterministic) continue;
    SCOPED_TRACE(spec.name);
    const Graph g = compatible_graph(spec);
    std::vector<SolveOutcome> outs;
    for (const std::size_t threads : {1u, 4u, 1u, 4u}) {
      const ScopedEngineConfig config({.threads = threads});
      outs.push_back(spec.run(g, default_params()));
    }
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
      const ScopedEngineConfig config({.threads = threads});
      const SolveOutcome o = spec.run(g, p);
      EXPECT_EQ(o.labels, ref.labels);
      EXPECT_EQ(o.metrics.rounds, ref.metrics.rounds);
      EXPECT_EQ(o.metrics.active_per_round, ref.metrics.active_per_round);
      EXPECT_EQ(o.summary, ref.summary);
      skipped += o.metrics.skipped_steps;
    }
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
        const ScopedEngineConfig config({.threads = threads});
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
  }
}

TEST(Registry, VertexEntriesLeaveAStreamedGraphsEdgeIndexUnbuilt) {
  // luby and bgko_mis — the solve, its verdict, the metrics' edge
  // measures and the MIS re-check — read adjacency only, so a streamed
  // graph's lazily built edge index stays unbuilt through them. Their
  // edge measures equal those on the same graph with an eager index.
  const Graph streamed = gen::rmat({.scale = 10, .edge_factor = 8, .seed = 4});
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < streamed.num_vertices(); ++u)
    for (const Vertex v : streamed.forward_neighbors(u))
      edges.emplace_back(u, v);
  const Graph eager(streamed.num_vertices(), std::move(edges));
  const Registry& reg = Registry::instance();
  for (const char* name : {"luby", "bgko_mis"}) {
    SCOPED_TRACE(name);
    const AlgoSpec& spec = reg.at(name);
    const SolveOutcome o = spec.run(streamed, default_params());
    EXPECT_TRUE(o.ok());
    std::vector<bool> in_set(o.labels.begin(), o.labels.end());
    EXPECT_TRUE(is_mis(streamed, in_set));
    EXPECT_FALSE(streamed.edge_index_built());

    const SolveOutcome ref = spec.run(eager, default_params());
    EXPECT_EQ(o.labels, ref.labels);
    EXPECT_GT(o.metrics.edge_round_sum(), 0u);
    EXPECT_EQ(o.metrics.edge_round_sum(), ref.metrics.edge_round_sum());
    EXPECT_EQ(o.metrics.edge_active_per_round,
              ref.metrics.edge_active_per_round);
  }
  // An edge entry does build it.
  EXPECT_TRUE(reg.at("bgko_matching").run(streamed, default_params()).ok());
  EXPECT_TRUE(streamed.edge_index_built());
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
  const auto serial = registry::run_trials(spec, g, default_params(), 8);
  const auto parallel = [&] {
    const ScopedEngineConfig config({.threads = 4});
    return registry::run_trials(spec, g, default_params(), 8);
  }();
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
