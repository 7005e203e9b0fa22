// Micro-benchmarks (google-benchmark) for experiment M1 in DESIGN.md —
// the Section 1.2 "simulation efficiency" motivation: the wall-clock
// cost of simulating a LOCAL execution on one host is proportional to
// RoundSum (the quantity the vertex-averaged measure minimizes), not to
// n times the worst case. Algorithms with small VA therefore simulate
// proportionally faster, which these benches make directly visible, and
// the fixtures double as engine-throughput regressions.
#include <benchmark/benchmark.h>

#include <map>

#include "algo/bgko22.hpp"
#include "algo/coloring_a2logn.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/hset_composition.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "algo/partition.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "algo/rings.hpp"
#include "baseline/be08_arb_color.hpp"
#include "baseline/luby_mis.hpp"
#include "baseline/wc_delta_plus1.hpp"
#include "bench_common.hpp"
#include "coverfree/coverfree.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "sim/network.hpp"
#include "sim/wake_calendar.hpp"
#include "util/rng.hpp"

namespace valocal {
namespace {

const Graph& tree(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
    it = cache.emplace(n, gen::dary_tree(n, params.threshold() + 1))
             .first;
  }
  return it->second;
}

const Graph& ring(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, gen::ring(n)).first;
  return it->second;
}

// forest_union(n, 3): the det-catalog shape of the edge entries.
const Graph& forest3(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, gen::forest_union(n, 3, 1)).first;
  return it->second;
}

// Erdos-Renyi with average degree 16: the rand-dense shape.
const Graph& er16(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, gen::erdos_renyi(n, 16.0, 1)).first;
  return it->second;
}

std::uint64_t stepped_vertex_rounds(const Metrics& m) {
  std::uint64_t s = 0;
  for (std::size_t a : m.active_per_round) s += a;
  return s;
}

// Engine round-throughput fixtures: algorithms whose per-vertex step is
// a few instructions, so the measured time is dominated by the round
// engine itself (buffer management, frontier walk, dispatch).
// items_per_second = stepped vertex-rounds per second, the engine's
// round-throughput — the number BENCH_engine.json tracks across PRs.
// counters["skipped"] is the vertex-rounds wake scheduling elided.
template <class A>
void engine_fixture(benchmark::State& state, const Graph& g,
                    const A& algo) {
  std::uint64_t stepped = 0;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    auto result = run_local(g, algo);
    stepped = stepped_vertex_rounds(result.metrics);
    skipped = result.metrics.skipped_steps;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["stepped"] = static_cast<double>(stepped);
  state.counters["skipped"] = static_cast<double>(skipped);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stepped));
}

void BM_EngineRing3(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  engine_fixture(state, ring(n), RingColoring3Algo(n));
}
BENCHMARK(BM_EngineRing3)->Arg(1 << 12)->Arg(1 << 16);

void BM_EngineA2LogN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  engine_fixture(state, g, ColoringA2LogNAlgo(g.num_vertices(), params));
}
BENCHMARK(BM_EngineA2LogN)->Arg(1 << 12)->Arg(1 << 16);

// The rand-dense shape (ER, average degree 16): BGKO'22 mutual
// proposals, whose step reads one neighbor's proposal per resolve
// round; BGKO'22 degree-marking MIS, whose resolve stops at the first
// active neighbor once the vertex cannot join; the Section 9.2
// (Delta+1) draw over a free-color bit mask; and the run-to-completion
// (Delta+1) baseline, which parks through the Kuhn-Wattenhofer stage's
// no-op rounds (items count them too: parked rounds are charged).
void BM_EngineBgkoMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  engine_fixture(state, er16(n), BgkoMatchingAlgo{});
}
BENCHMARK(BM_EngineBgkoMatching)->Arg(1 << 14);

void BM_EngineBgkoMis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  engine_fixture(state, er16(n), BgkoMisAlgo{});
}
BENCHMARK(BM_EngineBgkoMis)->Arg(1 << 14);

void BM_EngineRandDeltaPlusOne(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = er16(n);
  engine_fixture(state, g, RandDeltaPlusOneAlgo(g.max_degree()));
}
BENCHMARK(BM_EngineRandDeltaPlusOne)->Arg(1 << 14);

void BM_EngineWcDelta(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = er16(n);
  engine_fixture(state, g,
                 WorstCaseDeltaPlusOneAlgo(g.num_vertices(), g.max_degree()));
}
BENCHMARK(BM_EngineWcDelta)->Arg(1 << 14);

// The edge entries (Corollaries 8.6 / 8.8) on forest_union(n, 3), the
// det-catalog shape: most rounds are the line-graph (D+1)-plan, which
// H-set members sleep through between their active rounds and idle
// vertices skip to their head duties (items count parked rounds too).
void BM_EngineEdgeColoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = forest3(n);
  const PartitionParams params{.arboricity = 3, .epsilon = 1.0};
  engine_fixture(state, g,
                 EdgeColoringAlgo(g.num_vertices(), g.num_edges(), params));
}
BENCHMARK(BM_EngineEdgeColoring)->Arg(1 << 12);

void BM_EngineMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = forest3(n);
  const PartitionParams params{.arboricity = 3, .epsilon = 1.0};
  engine_fixture(state, g,
                 MatchingAlgo(g.num_vertices(), g.num_edges(), params));
}
BENCHMARK(BM_EngineMatching)->Arg(1 << 12);

// Dense phase then a one-in-64 tail (bench::DensePhaseAlgo): the
// active profile of the paper's algorithms, where the bitset walk
// pays one load per mostly-dormant word through the tail.
void BM_EngineDensePhase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  engine_fixture(state, ring(n), bench::DensePhaseAlgo{});
}
BENCHMARK(BM_EngineDensePhase)->Arg(1 << 16);

// Wait-heavy fixture pair: the composition workload whose subroutine
// terminates early, so most vertex-rounds are idle waiting. The
// unhinted row runs under ScopedNoParking, the no-calendar reference;
// the hinted row runs the default wake-scheduled engine. Both process
// the SAME stepped vertex-rounds (sleepers stay in active_per_round by
// contract), so the hinted/unhinted items_per_second ratio is exactly
// the round-loop speedup wake scheduling buys.
void BM_EngineWaitHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const ScopedNoParking no_parking;
  engine_fixture(state, tree(n), bench::wait_heavy_composition(n, params));
}
BENCHMARK(BM_EngineWaitHeavy)->Arg(1 << 16);
void BM_EngineWaitHeavyHinted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  engine_fixture(state, tree(n), bench::wait_heavy_composition(n, params));
}
BENCHMARK(BM_EngineWaitHeavyHinted)->Arg(1 << 16);

// Calendar-queue microbenchmark: schedule n vertices across a 64-round
// horizon and drain bucket by bucket — the two operations the wake
// path adds to every engine round. items_per_second = vertices
// scheduled + popped per second.
void BM_EngineCalendarQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WakeCalendar cal;
  for (auto _ : state) {
    cal.reset(1);
    for (Vertex v = 0; v < n; ++v) cal.schedule(v, 2 + (v & 63));
    std::size_t drained = 0;
    std::size_t round = 1;
    while (cal.sleeping() > 0) drained += cal.take(round++).size();
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineCalendarQueue)->Arg(1 << 20);

// The Arb-Linial color-reduction kernel in isolation: one
// CoverFreeFamily::pick_escaping call in the (2^16, 9) family the
// deterministic catalog runs at n = 2^16, a = 3 (A = 9), against 9
// random parent colors. items_per_second = picks per second.
void BM_PickEscaping(benchmark::State& state) {
  constexpr std::uint64_t kColors = 1 << 16;
  constexpr std::size_t kParents = 9;
  constexpr std::size_t kQueries = 1024;
  const CoverFreeFamily family(kColors, kParents);
  Xoshiro256 rng(9);
  std::vector<std::uint64_t> colors(kQueries * (kParents + 1));
  for (auto& c : colors) c = rng.below(kColors);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t* query =
        colors.data() + (i++ % kQueries) * (kParents + 1);
    benchmark::DoNotOptimize(family.pick_escaping(
        query[0], std::span<const std::uint64_t>(query + 1, kParents)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PickEscaping);

// Graph construction, one row per CSR build path. BM_GraphFromSource
// streams an in-memory RMAT pair list (SpanEdgeSource, edge factor 16)
// through the build that stops at the CSR; items = directed pairs per
// second. The /16 row's 8 MB adjacency fits in cache; the /18 row's
// 32 MB (4.2M pairs, 8.4M slots) does not, so only it shows the
// scatter's memory latency.
// BM_GraphBuilderEr generates ER 2^16 with average degree 16 through
// GraphBuilder (de-duplication set, then the eager edge-index build);
// items = edges per second.
void BM_GraphFromSource(benchmark::State& state) {
  const gen::RmatParams params{
      .scale = static_cast<std::uint32_t>(state.range(0)),
      .edge_factor = 16,
      .seed = 1};
  std::vector<Vertex> pairs;
  pairs.reserve(2 * params.num_directed_edges());
  gen::RmatSource(params).stream(1, [&](EdgeBlockSource::Block block) {
    pairs.insert(pairs.end(), block.begin(), block.end());
  });
  const SpanEdgeSource source(pairs);
  for (auto _ : state) {
    const Graph g = Graph::from_source(params.num_vertices(), source);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs.size() / 2));
}
BENCHMARK(BM_GraphFromSource)
    ->Arg(16)
    ->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_GraphBuilderEr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::size_t edges = 0;
  for (auto _ : state) {
    const Graph g = gen::erdos_renyi(n, 16.0, 1);
    benchmark::DoNotOptimize(g.num_edges());
    edges = g.num_edges();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_GraphBuilderEr)->Arg(1 << 16)->Unit(benchmark::kMillisecond);

// The exact degeneracy (graph/arboricity.hpp), one row per search
// path: RMAT s18x16 peels only the hub subgraphs (kRestricted), ER 2^17
// of average degree 16 falls back to the whole-graph peel (kFullPeel).
// Each row fails if its graph takes another path. items = half-edges
// (2m) per second.
void degeneracy_row(benchmark::State& state, const Graph& g,
                    detail::DegeneracyPath path) {
  if (detail::degeneracy_search(g).path != path) {
    state.SkipWithError("graph took another degeneracy path");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(degeneracy(g));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.num_edges()));
}

void BM_GraphDegeneracyRmat(benchmark::State& state) {
  const Graph g = gen::rmat(
      {.scale = static_cast<std::uint32_t>(state.range(0)),
       .edge_factor = 16,
       .seed = 1});
  degeneracy_row(state, g, detail::DegeneracyPath::kRestricted);
}
BENCHMARK(BM_GraphDegeneracyRmat)->Arg(18)->Unit(benchmark::kMillisecond);

void BM_GraphDegeneracyEr(benchmark::State& state) {
  const Graph g =
      gen::erdos_renyi(static_cast<std::size_t>(state.range(0)), 16.0, 1);
  degeneracy_row(state, g, detail::DegeneracyPath::kFullPeel);
}
BENCHMARK(BM_GraphDegeneracyEr)->Arg(1 << 17)->Unit(benchmark::kMillisecond);

void BM_Partition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  std::uint64_t round_sum = 0;
  for (auto _ : state) {
    auto result = compute_h_partition(g, {.arboricity = 1});
    round_sum = result.metrics.round_sum();
    benchmark::DoNotOptimize(result.hset.data());
  }
  state.counters["round_sum"] = static_cast<double>(round_sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(round_sum)));
}
BENCHMARK(BM_Partition)->Arg(1 << 12)->Arg(1 << 16);

void BM_ColoringA2LogN_EarlyTermination(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  std::uint64_t round_sum = 0;
  for (auto _ : state) {
    auto result = compute_coloring_a2logn(g, {.arboricity = 1});
    round_sum = result.metrics.round_sum();
    benchmark::DoNotOptimize(result.color.data());
  }
  state.counters["round_sum"] = static_cast<double>(round_sum);
}
BENCHMARK(BM_ColoringA2LogN_EarlyTermination)->Arg(1 << 12)->Arg(1 << 16);

void BM_Be08_RunToCompletion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  std::uint64_t round_sum = 0;
  for (auto _ : state) {
    auto result = compute_be08_arb_color(g, {.arboricity = 1});
    round_sum = result.metrics.round_sum();
    benchmark::DoNotOptimize(result.color.data());
  }
  state.counters["round_sum"] = static_cast<double>(round_sum);
}
BENCHMARK(BM_Be08_RunToCompletion)->Arg(1 << 12)->Arg(1 << 16);

void BM_Mis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  for (auto _ : state) {
    auto result = compute_mis(g, {.arboricity = 1});
    benchmark::DoNotOptimize(result.in_set);
  }
}
BENCHMARK(BM_Mis)->Arg(1 << 12)->Arg(1 << 14);

void BM_RandDeltaPlusOne(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  for (auto _ : state) {
    auto result = compute_rand_delta_plus1(g, 7);
    benchmark::DoNotOptimize(result.color.data());
  }
}
BENCHMARK(BM_RandDeltaPlusOne)->Arg(1 << 12)->Arg(1 << 16);

void BM_LubyMis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = tree(n);
  for (auto _ : state) {
    auto result = compute_luby_mis(g, 7);
    benchmark::DoNotOptimize(result.in_set);
  }
}
BENCHMARK(BM_LubyMis)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
}  // namespace valocal

BENCHMARK_MAIN();
