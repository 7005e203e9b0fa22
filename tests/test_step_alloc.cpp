// Steady-state step bodies of the deterministic color-reduction entries
// allocate nothing. This binary replaces the global operator new with
// a counter that is armed only while an algorithm's step runs (a
// wrapper algorithm toggles it), so engine bookkeeping, result vectors
// and graph generation never count. The first run of each entry warms
// the per-thread scratch buffers; the second run must make zero
// allocations inside step.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "algo/coloring_a2.hpp"
#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/coloring_oa.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/mis.hpp"
#include "baseline/wc_delta_plus1.hpp"
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace valocal {
namespace {

/// Forwards every hook of A unchanged; step arms the counter for the
/// duration of the wrapped call. Wake hints and the packed layout are
/// forwarded too, so the engine drives the same path as for A itself.
template <class A>
class CountingStep {
 public:
  using State = typename A::State;
  using Output = typename A::Output;

  explicit CountingStep(const A& algo) : algo_(algo) {}

  void init(Vertex v, const Graph& g, State& s) const { algo_.init(v, g, s); }

  template <class View, class NextState>
  bool step(Vertex v, std::size_t round, const View& view, NextState& next,
            Xoshiro256& rng) const {
    counting = true;
    const bool done = algo_.step(v, round, view, next, rng);
    counting = false;
    return done;
  }

  template <class StateLike>
  Output output(Vertex v, const StateLike& s) const {
    return algo_.output(v, s);
  }

  template <class StateLike>
  std::size_t next_wake(Vertex v, std::size_t round,
                        const StateLike& s) const
    requires WakeHinted<A>
  {
    return algo_.next_wake(v, round, s);
  }

  static constexpr bool uses_rng = false;

 private:
  const A& algo_;
};

template <class A>
struct PackedCountingStep : CountingStep<A> {
  using CountingStep<A>::CountingStep;
  using Ref = typename A::Ref;
  using CRef = typename A::CRef;
  using StatePack = typename A::StatePack;
};

/// Allocations inside step during the second of two identical runs.
template <class A>
std::size_t second_run_step_allocations(const Graph& g, const A& algo) {
  RunOptions opt;
  opt.num_threads = 1;
  const auto wrapped = [&] {
    if constexpr (StatePacked<A>)
      return PackedCountingStep<A>(algo);
    else
      return CountingStep<A>(algo);
  }();
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
  const ColoringA2Algo algo(forest().num_vertices(), kParams);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Ka2) {
  const ColoringKa2Algo algo(forest().num_vertices(), kParams, 0);
  EXPECT_EQ(second_run_step_allocations(forest(), algo), 0u);
}

TEST(StepAlloc, Oa) {
  const ColoringOaAlgo algo(forest().num_vertices(), kParams);
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

TEST(StepAlloc, WorstCaseDeltaPlusOne) {
  const Graph g = gen::erdos_renyi(1 << 10, 8.0, 3);
  const WorstCaseDeltaPlusOneAlgo algo(g.num_vertices(), g.max_degree());
  EXPECT_EQ(second_run_step_allocations(g, algo), 0u);
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
