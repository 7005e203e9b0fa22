// Steady-state step bodies of the deterministic color-reduction entries
// (the H-set entries, their edge counterparts, the arbdefective coloring
// and the baselines) and of the randomized entries allocate nothing.
// This binary replaces the global operator new with a counter that is
// armed only while an algorithm's step runs (a wrapper algorithm
// toggles it), so engine bookkeeping, result vectors and graph
// generation never count. The
// first run of each entry warms the per-thread scratch buffers; the
// second run (same seed, so the same draws) must make zero allocations
// inside step.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "algo/bgko22.hpp"
#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/defective_coloring.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "baseline/be08_arb_color.hpp"
#include "baseline/luby_mis.hpp"
#include "baseline/wc_delta_plus1.hpp"
#include "baseline/wc_edge_mm.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"

namespace {

thread_local bool counting = false;
std::atomic<std::size_t> step_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (counting) step_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow form too (std::inplace_merge's temporary buffer in the
// wake calendar uses it): otherwise a sanitizer's own nothrow new
// would pair with the free() below and report a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace valocal {
namespace {

/// Forwards every hook of A unchanged; step arms the counter for the
/// duration of the wrapped call. Wake hints and the RNG trait are
/// forwarded too, so the engine drives the same path as for A itself
/// (a randomized A draws from its own per-vertex streams).
template <class A>
class CountingStep {
 public:
  using State = typename A::State;
  using Output = typename A::Output;

  explicit CountingStep(const A& algo) : algo_(algo) {}

  void init(Vertex v, const Graph& g, State& s) const { algo_.init(v, g, s); }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const {
    counting = true;
    const bool done = algo_.step(v, round, view, next, rng);
    counting = false;
    return done;
  }

  Output output(Vertex v, const State& s) const { return algo_.output(v, s); }

  std::size_t next_wake(Vertex v, std::size_t round, const State& s) const
    requires WakeHinted<A>
  {
    return algo_.next_wake(v, round, s);
  }

  static constexpr bool uses_rng = algorithm_uses_rng<A>;

 private:
  const A& algo_;
};

/// Allocations inside step during the second of two identical runs.
template <class A>
std::size_t second_run_step_allocations(const Graph& g, const A& algo) {
  const RunOptions opt;
  const CountingStep<A> wrapped(algo);
  const auto first = run_local(g, wrapped, opt);
  step_allocations = 0;
  const auto second = run_local(g, wrapped, opt);
  EXPECT_EQ(first.outputs, second.outputs);
  return step_allocations.load();
}

const PartitionParams kParams{.arboricity = 3, .epsilon = 1.0};

const Graph& forest() {
  static const Graph g = gen::forest_union(1 << 12, 3, 7);
  return g;
}

TEST(StepAlloc, A2LogN) {
  const ColoringA2LogNAlgo algo(forest().num_vertices(), kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, A2) {
  const ColoringKa2Algo algo(
      forest().num_vertices(), kParams,
      two_phase_segments(forest().num_vertices(), kParams.epsilon),
      PaletteLayout::kInterleaved);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Ka2) {
  const ColoringKa2Algo algo(forest().num_vertices(), kParams, 0);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Ka) {
  const ColoringKaAlgo algo(forest().num_vertices(), kParams, 0);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Be08) {
  const Be08ArbColorAlgo algo(forest().num_vertices(), kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Oa) {
  const ColoringKaAlgo algo(
      forest().num_vertices(), kParams,
      two_phase_segments(forest().num_vertices(), kParams.epsilon),
      PaletteLayout::kInterleaved);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, DeltaPlusOne) {
  const DeltaPlusOneAlgo algo(forest().num_vertices(), forest().max_degree(),
                              kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Mis) {
  const MisAlgo algo(forest().num_vertices(), kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, EdgeColoring) {
  const EdgeColoringAlgo algo(forest().num_vertices(), forest().num_edges(),
                              kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, WorstCaseEdgeColoring) {
  const WcEdgeColoringAlgo algo(forest().num_edges(), forest().max_degree());
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Matching) {
  const MatchingAlgo algo(forest().num_vertices(), forest().num_edges(),
                          kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

const Graph& er() {
  static const Graph g = gen::erdos_renyi(1 << 10, 8.0, 3);
  return g;
}

TEST(StepAlloc, WorstCaseDeltaPlusOne) {
  const WorstCaseDeltaPlusOneAlgo algo(er().num_vertices(), er().max_degree());
  EXPECT_EQ(second_run_step_allocations(er(), algo), 0u);
}

TEST(StepAlloc, ArbdefectiveColoring) {
  const ArbdefectiveLocalAlgo algo(er().num_vertices(), er().max_degree(),
                                   4);
  EXPECT_EQ(second_run_step_allocations(er(), algo), 0u);
}

TEST(StepAlloc, RandDeltaPlusOne) {
  const RandDeltaPlusOneAlgo algo(er().max_degree());
  EXPECT_EQ(second_run_step_allocations(er(), algo), 0u);
}

TEST(StepAlloc, BgkoMatching) {
  EXPECT_EQ(second_run_step_allocations(er(), BgkoMatchingAlgo{}), 0u);
}

TEST(StepAlloc, BgkoMis) {
  EXPECT_EQ(second_run_step_allocations(er(), BgkoMisAlgo{}), 0u);
}

TEST(StepAlloc, Luby) {
  EXPECT_EQ(second_run_step_allocations(er(), LubyMisAlgo{}), 0u);
}

TEST(StepAlloc, WrapperKeepsTheRngStreams) {
  // A randomized entry wrapped in CountingStep must draw from its own
  // per-vertex streams, not the engine's shared null stream: the
  // wrapped run reproduces the bare run's outputs.
  static_assert(algorithm_uses_rng<CountingStep<BgkoMatchingAlgo>>);
  static_assert(!algorithm_uses_rng<CountingStep<WorstCaseDeltaPlusOneAlgo>>);
  const BgkoMatchingAlgo algo;
  const RunOptions opt{.seed = 7};
  EXPECT_EQ(run_local(er(), CountingStep<BgkoMatchingAlgo>(algo), opt).outputs,
            run_local(er(), algo, opt).outputs);
}

TEST(StepAlloc, CounterSeesStepAllocations) {
  // The harness itself: an allocating step must be counted.
  struct Allocating {
    struct State {
      int x = 0;
    };
    using Output = int;
    void init(Vertex, const Graph&, State&) const {}
    bool step(Vertex, std::size_t, const RoundView<State>& view,
              State& next, Xoshiro256&) const {
      std::vector<int> local(view.degree() + 1, 1);
      next.x = local.back();
      return true;
    }
    Output output(Vertex, const State& s) const { return s.x; }
  };
  EXPECT_EQ(second_run_step_allocations(forest(), Allocating{}),
            forest().num_vertices());
}

}  // namespace
}  // namespace valocal
