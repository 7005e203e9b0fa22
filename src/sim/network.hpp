// Synchronous LOCAL-model round engine.
//
// Model. Each vertex of an undirected graph is a processor with a unique
// ID (its vertex index; adversarial assignments are exercised by
// permuting inputs at the algorithm layer). Computation proceeds in
// synchronous rounds. Message size is unbounded, so "sending your whole
// state to every neighbor each round" is the general form of a LOCAL
// message schedule; the engine therefore exposes, in round i, read-only
// access to each neighbor's state as of the END of round i-1
// (double-buffered). This is exactly the classical LOCAL model.
//
// Termination. When a vertex's step() returns Terminated, the engine
// charges it that final round (the paper's convention: the vertex sends
// its final output once to all neighbors and then performs no further
// computation or communication). Its last published state remains
// visible to neighbors forever, but it executes no further rounds.
//
// Memory layout (zero-copy publication). States live in a flat double
// buffer: two dense arrays of States. In round r every stepped vertex
// writes its next state DIRECTLY into its slot of buffer r mod 2 — no
// staging vectors, no merge pass — and readers locate any vertex u's
// last published state at buffer[(r-1) mod 2][u], a single indexed
// load. That read rule is kept valid for dormant vertices (terminated
// or parked) by FREEZING them at the round barrier of their last step:
// the engine copies their final slot into the other buffer once, so
// both buffers agree and the vertex never needs to republish. Active
// vertices republish every round, so their slot in the read buffer is
// always last round's publication. All freezes happen at the barrier,
// serially, so no reader can observe an in-progress copy. See
// docs/MODEL.md ("Engine memory layout & batching").
//
// Frontier. The awake set is one bitset, a bit per vertex. Every
// round walks it word by word in index order, so a fully dormant
// 64-vertex block costs one load and the iteration is exactly the
// serial ascending-vertex order. Bits are only flipped serially: set
// when the wake calendar returns a vertex, cleared at the round
// barrier when a vertex terminates or parks.
//
// Wake scheduling (always on for WakeHinted algorithms). Algorithms
// whose vertices idle until a precomputed round — block schedules,
// segment start rounds, phase boundaries — declare a next_wake() hint;
// the engine parks such vertices in a calendar queue
// (sim/wake_calendar.hpp) and skips their no-op steps. A parked vertex
// is exactly the terminated-vertex path generalized to "until round
// T": its published state freezes into both buffers and its awake bit
// clears, then the calendar sets the bit again in round T. A
// ScopedNoParking scope turns parking off: that engine is the
// no-calendar reference the wake-scheduled runs are byte-compared
// against. Metrics::skipped_steps and the trace `asleep` field record
// the simulator work saved.
//
// Algorithm interface (duck-typed; see LocalAlgorithm below):
//
//   struct MyAlgo {
//     struct State { ... };                 // published to neighbors;
//                                           // copied whole every round,
//                                           // so keep it small
//     using Output = ...;                   // final per-vertex output
//     void init(Vertex v, const Graph& g, State& s) const;
//     bool step(Vertex v, std::size_t round,             // 1-based
//               const RoundView<State>& view, State& next,
//               Xoshiro256& rng) const;     // true => terminate now
//     Output output(Vertex v, const State& s) const;
//   };
//
// step() must base all decisions on `view` (previous-round states of v
// and its neighbors), `round`, v's ID, global knowledge (n, and the
// known arboricity passed at construction of the algorithm object), and
// `rng`. The engine enforces the double buffer; it cannot enforce that
// an algorithm refrains from indexing non-neighbors, so RoundView only
// exposes neighbor access.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/wake_calendar.hpp"
#include "trace/trace.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace valocal {

/// Read-only window onto the previous round: own state plus the states
/// of the (radius-1) neighborhood. Backed by the engine's double
/// buffer: during round r the read side is buffer (r-1) mod 2, and the
/// engine freezes every dormant vertex's final state into BOTH buffers
/// at its last round's barrier, so one indexed load suffices for any
/// vertex — active, parked, or terminated. One view is constructed per
/// work chunk and rebound per vertex; it never owns or copies state.
template <class State>
class RoundView {
 public:
  RoundView(const Graph& g, const State* read_buf)
      : graph_(&g), read_(read_buf) {}

  std::size_t degree() const { return nbrs_.size(); }

  std::span<const Vertex> neighbors() const { return nbrs_; }

  std::span<const EdgeId> incident_edges() const {
    return graph_->incident_edges(v_);
  }

  Vertex neighbor(std::size_t i) const { return nbrs_[i]; }

  const State& neighbor_state(std::size_t i) const {
    return read_[nbrs_[i]];
  }

  /// Port of the shared edge within neighbor i's incident list — lets
  /// per-edge state published by the neighbor be addressed locally.
  std::size_t neighbor_port(std::size_t i) const {
    return graph_->neighbor_port(v_, i);
  }

  /// State of a specific neighbor u (debug-checked to be adjacent).
  const State& state_of(Vertex u) const {
    VALOCAL_DCHECK(graph_->has_edge(v_, u),
                   "LOCAL violation: reading a non-neighbor's state");
    return read_[u];
  }

  const State& self() const { return read_[v_]; }

  /// Engine-internal: retarget the view at another vertex (run_local
  /// hoists view construction out of the per-vertex loop). Caches the
  /// CSR adjacency span so repeated neighbor accesses in one step pay
  /// the offset loads once — the compiler cannot hoist them itself
  /// because writes through the step's `next` slot may alias the
  /// offset arrays.
  void rebind(Vertex v) {
    v_ = v;
    nbrs_ = graph_->neighbors(v);
  }

 private:
  const Graph* graph_;
  const State* read_;
  Vertex v_ = 0;
  std::span<const Vertex> nbrs_{};
};

/// Per-round verdict of a vertex. The paper (Section 2) modifies the
/// first definition of [12]: a vertex sends its final output once and
/// then stops entirely (kTerminate). [12]'s original definition lets a
/// vertex COMMIT its output — freezing r(v) — while continuing to relay
/// (kCommit); the leader-election result reproduced in algo/rings
/// needs that weaker mode. Algorithms whose step returns bool get the
/// paper's semantics (true == kTerminate).
enum class StepResult : std::uint8_t {
  kContinue = 0,
  kCommit = 1,     // output fixed, r(v) frozen, keeps executing
  kTerminate = 2,  // output fixed, stops executing, state stays visible
};

template <class A>
concept LocalAlgorithm = requires(const A a, Vertex v, const Graph& g,
                                  typename A::State& s,
                                  const RoundView<typename A::State>& view,
                                  Xoshiro256& rng) {
  typename A::State;
  typename A::Output;
  { a.init(v, g, s) } -> std::same_as<void>;
  requires std::same_as<decltype(a.step(v, std::size_t{1}, view, s, rng)),
                        bool> ||
               std::same_as<decltype(a.step(v, std::size_t{1}, view, s,
                                            rng)),
                            StepResult>;
  { a.output(v, s) } -> std::same_as<typename A::Output>;
};

/// Wake-hint trait. An algorithm may declare
///
///   std::size_t next_wake(Vertex v, std::size_t round,
///                         const State& next) const;
///
/// called by the engine AFTER a kContinue step, on the state the vertex
/// just published. The return value is the next round in which the
/// vertex's step is NOT a no-op; returning anything > round + 1 lets
/// the engine park the vertex (skip its steps entirely) until that
/// round. Soundness contract: every skipped step would have left the
/// state unchanged, returned kContinue, and drawn nothing from the RNG
/// — then the frozen published state is value-identical to what
/// republication would have produced, and outputs, r(v), and RNG
/// streams are byte-identical to the no-calendar engine (run under
/// ScopedNoParking). Hints may be
/// conservative (round + 1 is always sound) but never optimistic.
template <class A>
concept WakeHinted =
    LocalAlgorithm<A> &&
    requires(const A a, Vertex v, const typename A::State& s) {
      { a.next_wake(v, std::size_t{1}, s) }
          -> std::convertible_to<std::size_t>;
    };

/// Opt-in RNG trait: an algorithm whose step never draws from its RNG
/// can declare `static constexpr bool uses_rng = false;` and the engine
/// skips constructing the n per-vertex Xoshiro256 streams up front —
/// O(n) setup that deterministic batch trials otherwise pay per run.
/// Default (no declaration) preserves the original behavior.
template <class A>
inline constexpr bool algorithm_uses_rng = [] {
  if constexpr (requires {
                  { A::uses_rng } -> std::convertible_to<bool>;
                })
    return static_cast<bool>(A::uses_rng);
  else
    return true;
}();

/// Process-wide default worker-thread count for run_local, used by runs
/// whose RunOptions::num_threads is 0 ("inherit"). Initially 1 (serial).
/// Because the engine's results are byte-identical for every thread
/// count, raising this changes wall-clock only — tools/benches set it
/// once (e.g. from --threads / VALOCAL_THREADS) and every compute_*
/// entry point below them exploits it.
inline std::size_t& detail_engine_threads() {
  static std::size_t threads = 1;
  return threads;
}

inline void set_engine_threads(std::size_t num_threads) {
  detail_engine_threads() = num_threads == 0 ? 1 : num_threads;
}

inline std::size_t engine_threads() { return detail_engine_threads(); }

/// Thread-local override consulted BEFORE the process-wide default when
/// RunOptions::num_threads is 0. The trial batcher (sim/batch.hpp)
/// pins it to 1 on its pool workers so trials running concurrently
/// cannot each spin up a nested parallel engine; 0 = no override.
inline std::size_t& detail_engine_thread_override() {
  static thread_local std::size_t threads = 0;
  return threads;
}

/// RAII scope for the thread-local engine-thread override.
class ScopedEngineThreadOverride {
 public:
  explicit ScopedEngineThreadOverride(std::size_t num_threads)
      : previous_(detail_engine_thread_override()) {
    detail_engine_thread_override() = num_threads;
  }
  ~ScopedEngineThreadOverride() {
    detail_engine_thread_override() = previous_;
  }
  ScopedEngineThreadOverride(const ScopedEngineThreadOverride&) = delete;
  ScopedEngineThreadOverride& operator=(const ScopedEngineThreadOverride&) =
      delete;

 private:
  std::size_t previous_;
};

/// Wake scheduling is always on (see the file comment). This fixed
/// report exists only because the repository benchmark's run record
/// (perfbench/valocal_bench.cpp) prints it; that record is its only
/// reader.
inline bool engine_sleep_hints() { return true; }

/// Test/bench hook: while a ScopedNoParking is alive, run_local steps
/// every vertex of a WakeHinted algorithm each round instead of
/// parking it. That engine is the no-calendar reference the default
/// engine is byte-compared against. Process-wide, so it covers whole
/// registry pipelines and batch workers; scopes nest. Not a user-facing
/// option: no RunOptions field, flag or env var reaches it.
inline bool& detail_engine_no_parking() {
  static bool no_parking = false;
  return no_parking;
}

class ScopedNoParking {
 public:
  ScopedNoParking() : previous_(detail_engine_no_parking()) {
    detail_engine_no_parking() = true;
  }
  ~ScopedNoParking() { detail_engine_no_parking() = previous_; }
  ScopedNoParking(const ScopedNoParking&) = delete;
  ScopedNoParking& operator=(const ScopedNoParking&) = delete;

 private:
  bool previous_;
};

/// The engine has one frontier, the awake bitset (see the file
/// comment). This fixed one-value report exists only because the
/// repository benchmark's run record (perfbench/valocal_bench.cpp)
/// prints it; that record is its only reader.
enum class FrontierMode : std::uint8_t { kDense };

inline const char* frontier_mode_name(FrontierMode) { return "dense"; }

inline FrontierMode engine_frontier_mode() { return FrontierMode::kDense; }

/// The engine stores states in one layout, the AoS double buffer. This
/// fixed one-value report exists only because the repository
/// benchmark's run record (perfbench/valocal_bench.cpp) prints it; that
/// record is its only reader.
enum class StateLayout : std::uint8_t { kAos };

inline const char* state_layout_name(StateLayout) { return "aos"; }

inline StateLayout engine_state_layout() { return StateLayout::kAos; }

struct RunOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Hard cap on rounds; 0 = automatic generous bound (64n + 100000).
  /// Every algorithm in this library must terminate, so exceeding the
  /// cap aborts — with a diagnostic reporting the round number and the
  /// number of still-active vertices, to make the runaway findable.
  std::size_t max_rounds = 0;
  /// Worker threads for the round loop. 1 = the serial engine;
  /// 0 = inherit the thread-local override (ScopedEngineThreadOverride)
  /// if set, else the process-wide default (set_engine_threads(),
  /// initially 1). Outputs and semantic Metrics (rounds,
  /// active_per_round) are byte-identical for every value — vertices
  /// are stepped against the previous round's double buffer with
  /// per-vertex RNG streams, and all per-round reductions are merged
  /// in deterministic vertex order.
  std::size_t num_threads = 0;
  /// Vertices per parallel work chunk; 0 = automatic. Purely a
  /// scheduling knob: any value yields identical results.
  std::size_t grain = 0;
  /// Materialize RunResult::final_states (every vertex's post-run
  /// State). Off by default: outputs + metrics are the production
  /// surface, and only tests read the final states. Purely a
  /// result-shape knob; has no effect on outputs, r(v), or any
  /// semantic metric.
  bool want_final_states = false;
};

template <LocalAlgorithm A>
struct RunResult {
  std::vector<typename A::Output> outputs;
  /// Empty unless RunOptions::want_final_states was set.
  std::vector<typename A::State> final_states;
  Metrics metrics;
};

namespace detail_engine {

/// Reusable engine workspace, one per thread whatever the State type:
/// everything run_local allocates that neither escapes into the
/// RunResult nor depends on State. Repeated runs on a thread — a batch
/// worker draining trials, a pipeline of compute_* stages — reuse its
/// capacity instead of paying the allocator, or keeping a copy per
/// State type alive.
struct EngineWorkspace {
  /// The frontier: one awake bit per vertex, so the round scan tests 64
  /// vertices per load and a fully dormant block costs nothing.
  /// Maintained serially (wake phase and round barrier only).
  /// `committed` deliberately stays a byte array — distinct vertices
  /// stamp it concurrently from worker threads, which a shared-word
  /// bitset cannot support without atomics.
  std::vector<std::uint64_t> awake_words;
  std::vector<std::uint8_t> committed;
  std::vector<Xoshiro256> rng;
  /// Per-chunk dormancy deltas: (v, wake_round), wake_round == 0
  /// meaning terminated (real wake rounds are always > the current
  /// round, hence nonzero). Applied at the barrier in chunk order.
  std::vector<std::vector<std::pair<Vertex, std::size_t>>> chunk_dormant;
  std::vector<trace::ChunkCounters> chunk_counters;
  std::vector<std::size_t> round_phase_charged;
  WakeCalendar calendar;
  bool in_use = false;
};

/// The one State-typed engine buffer: the double buffer's second half.
/// buf0 and the outputs vector are deliberately not pooled: they are
/// moved into the result. Pooling buf1 is safe because every slot is
/// whole-object assigned (`next = prev`) before any read; stale values
/// from a previous run are never observed.
template <class State>
struct StateBuffer {
  std::vector<State> buf1;
  bool in_use = false;
};

/// Leases the calling thread's `Scratch` (EngineWorkspace or a
/// StateBuffer) for one run_local invocation; if it is already leased
/// (an algorithm re-entering run_local from inside a step or a compute
/// function), falls back to a fresh local instance so nested runs never
/// alias buffers.
template <class Scratch>
class ScratchLease {
 public:
  ScratchLease() {
    thread_local Scratch scratch;
    if (!scratch.in_use) {
      scratch.in_use = true;
      leased_ = &scratch;
    }
  }
  ~ScratchLease() {
    if (leased_ != nullptr) leased_->in_use = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch& operator*() { return leased_ != nullptr ? *leased_ : fallback_; }

  /// False iff this lease fell back to a fresh local instance.
  bool pooled() const { return leased_ != nullptr; }

 private:
  Scratch* leased_ = nullptr;
  Scratch fallback_;
};

/// Steps one vertex and stages its side effects: termination and
/// parking are recorded as chunk-local dormancy deltas and applied at
/// the round barrier. Deliberately a free function with explicit
/// parameters, not a capturing lambda: the capture struct defeats
/// scalar replacement and costs ~20% on step-light workloads, while
/// explicit arguments inline cleanly into the bitset walk.
template <LocalAlgorithm A>
[[gnu::always_inline]] inline void step_one(
    const A& algo, const Graph& g, std::size_t round, Vertex v,
    RoundView<typename A::State>& view, const typename A::State* read,
    typename A::State* write, std::uint8_t* committed,
    std::vector<typename A::Output>& outputs,
    std::uint32_t* rounds_out, Xoshiro256* rng_streams,
    Xoshiro256& null_rng, bool parking, trace::ChunkCounters* counters,
    std::vector<std::pair<Vertex, std::size_t>>& dormant) {
  using State = typename A::State;
  Xoshiro256& vertex_stream = [&]() -> Xoshiro256& {
    if constexpr (algorithm_uses_rng<A>)
      return rng_streams[v];
    else
      return null_rng;
  }();
  if (counters != nullptr) {
    if (!committed[v]) {
      ++counters->charged;
      if constexpr (trace::PhaseTraced<A>)
        ++counters->phase_charged[algo.trace_phase_of(v, round, read[v])];
    }
    counters->volume_bytes +=
        static_cast<std::uint64_t>(sizeof(State)) * g.degree(v);
  }
  view.rebind(v);
  // Carry the last published state forward into this round's write
  // slot, then step against it.
  State& next = write[v];
  next = read[v];
  StepResult verdict;
  if constexpr (std::is_same_v<decltype(algo.step(v, round, view, next,
                                                  vertex_stream)),
                               bool>) {
    verdict = algo.step(v, round, view, next, vertex_stream)
                  ? StepResult::kTerminate
                  : StepResult::kContinue;
  } else {
    verdict = algo.step(v, round, view, next, vertex_stream);
  }
  if (verdict != StepResult::kContinue && !committed[v]) {
    rounds_out[v] = static_cast<std::uint32_t>(round);
    outputs[v] = algo.output(v, next);
    committed[v] = 1;
    if (counters != nullptr) ++counters->committed;
  }
  if (verdict == StepResult::kTerminate) {
    if (counters != nullptr) ++counters->terminated;
    dormant.emplace_back(v, 0);
    return;
  }
  if constexpr (WakeHinted<A>) {
    // Park a continuing vertex whose hint names a future round. Hints
    // apply only to kContinue: a committed relay (kCommit) may still
    // mutate state every round.
    if (parking && verdict == StepResult::kContinue) {
      const std::size_t wake = algo.next_wake(v, round, next);
      if (wake > round + 1) dormant.emplace_back(v, wake);
    }
  }
}

}  // namespace detail_engine

/// Runs `algo` on `g` to completion and returns outputs plus metrics.
///
/// Determinism contract. For fixed (graph, algorithm, seed), outputs,
/// final_states, Metrics::rounds, and Metrics::active_per_round are
/// byte-identical for every num_threads/grain combination, with or
/// without parking: each awake vertex is stepped exactly once per
/// round against the previous round's buffer with its own RNG stream,
/// every per-vertex write (next state, r(v), committed output,
/// dormancy freeze) lands in a slot only that vertex touches, and the
/// awake bitset only changes at the serial wake phase and barrier.
///
/// Output freezing. The first round in which a vertex returns kCommit
/// or kTerminate fixes BOTH r(v) and its output: the engine snapshots
/// algo.output(v, ·) on that round's staged state. A committed vertex
/// may keep computing and relaying (kCommit), but nothing it does
/// afterwards can alter the recorded output.
///
/// Observability. When a trace sink is installed (trace::set_sink —
/// the slot is thread-local; the engine consults the calling thread's),
/// the engine reports one RoundEvent per round — active / charged /
/// committed / terminated counts, published-state volume
/// (sizeof(State) * degree summed over stepped vertices) and, for
/// algorithms satisfying trace::PhaseTraced, per-phase charged counts
/// — plus run begin/end events carrying the skipped-step total and the
/// pool's worker-load counters. All trace fields except wall_ns and
/// worker_load are sums over the round's vertex set and therefore
/// covered by the determinism contract above. With no sink installed (the default) the tracing
/// path reduces to one null-pointer test per vertex and the engine
/// behaves exactly as before.
template <LocalAlgorithm A>
RunResult<A> run_local(const Graph& g, const A& algo,
                       RunOptions opt = {}) {
  using State = typename A::State;
  using Output = typename A::Output;
  using Clock = std::chrono::steady_clock;
  static_assert(std::is_default_constructible_v<Output>,
                "run_local stores outputs in a dense array; Output must "
                "be default-constructible");
  const std::size_t n = g.num_vertices();

  RunResult<A> result;
  result.metrics.rounds.assign(n, 0);

  // Thread-local workspaces: non-escaping buffers keep their capacity
  // across runs (see EngineWorkspace and StateBuffer).
  detail_engine::ScratchLease<detail_engine::EngineWorkspace> lease;
  detail_engine::EngineWorkspace& ws = *lease;
  detail_engine::ScratchLease<detail_engine::StateBuffer<State>> buf_lease;

  // The double buffer (see file comment). init() is round 0's
  // publication: every vertex publishes into buffer 0. buf0 is freshly
  // constructed — init() may assume a default State — and escapes as
  // final_states; buf1 is pooled (never read before whole-object
  // assignment).
  std::vector<State> buf0(n);
  std::vector<State>& buf1 = (*buf_lease).buf1;
  buf1.resize(n);
  for (Vertex v = 0; v < n; ++v) algo.init(v, g, buf0[v]);
  State* const bufs[2] = {buf0.data(), buf1.data()};

  // Per-vertex RNG streams — skipped wholesale for algorithms that
  // declare uses_rng = false (the streams would never be drawn from).
  auto& rng = ws.rng;
  if constexpr (algorithm_uses_rng<A>) {
    rng.clear();
    rng.reserve(n);
    for (Vertex v = 0; v < n; ++v) rng.push_back(vertex_rng(opt.seed, v));
  }

  // The frontier (see file comment): one awake bit per vertex. The
  // round scan walks it word by word, so a fully dormant 64-vertex
  // block costs one load — the byte-at-a-time skip loop it replaced
  // paid a taken branch per dormant vertex, and GCC's block layout
  // made that two taken branches in the big composed-algorithm
  // instantiations (~2x on park-heavy runs).
  auto& awake_words = ws.awake_words;
  awake_words.assign((n + 63) / 64, ~0ULL);
  if ((n & 63) != 0) awake_words.back() = ~0ULL >> (64 - (n & 63));
  std::size_t awake_count = n;

  const std::size_t cap =
      opt.max_rounds != 0 ? opt.max_rounds : 64 * n + 100000;
  const std::size_t thread_override = detail_engine_thread_override();
  const std::size_t num_threads =
      opt.num_threads != 0
          ? opt.num_threads
          : (thread_override != 0 ? thread_override : engine_threads());

  // Wake scheduling: every WakeHinted algorithm parks unless a
  // ScopedNoParking scope is alive — that scope IS the no-calendar
  // engine. Unhinted algorithms never touch the calendar.
  const bool parking = WakeHinted<A> && !detail_engine_no_parking();
  WakeCalendar& calendar = ws.calendar;
  calendar.reset(1);

  // Outputs snapshotted at commit/terminate time (see contract above):
  // dense array + committed bitmap, so the hot path never touches an
  // optional's engaged flag and the final outputs vector is moved out
  // wholesale. (vector<uint8_t>, not vector<bool>: distinct vertices
  // must be writable concurrently.)
  std::vector<Output> outputs(n);
  auto& committed = ws.committed;
  committed.assign(n, 0);

  // Observer plumbing: `sink == nullptr` is the fast path — the
  // per-vertex branch below tests one pointer and nothing else runs.
  trace::TraceSink* const sink = trace::sink();
  std::span<const char* const> phase_names{};
  if constexpr (trace::PhaseTraced<A>) phase_names = algo.trace_phases();
  const std::size_t num_phases = sink != nullptr ? phase_names.size() : 0;
  if (sink != nullptr)
    sink->on_run_begin(
        trace::RunInfo{.engine = "local",
                       .num_vertices = n,
                       .num_edges = g.num_edges(),
                       .num_threads = num_threads,
                       .state_bytes = sizeof(State),
                       .seed = opt.seed},
        phase_names);

  ThreadPool pool(num_threads);
  // Chunk size only shapes the schedule, never the result; the
  // automatic choice aims for a few chunks per worker so dynamic
  // claiming absorbs per-chunk load imbalance. Chunk c covers vertex
  // indices [c*grain, (c+1)*grain), so chunk order IS ascending-vertex
  // order. Dormancy deltas and trace counters are accumulated per
  // chunk and applied at the barrier in chunk order (deltas) or by
  // summation (counters; order-independent, hence byte-deterministic).
  const std::size_t grain =
      opt.grain != 0
          ? opt.grain
          : std::max<std::size_t>(
                64, (n + 4 * num_threads - 1) / (4 * num_threads));
  const std::size_t num_chunks = (n + grain - 1) / grain;
  auto& chunk_dormant = ws.chunk_dormant;
  auto& chunk_counters = ws.chunk_counters;
  auto& round_phase_charged = ws.round_phase_charged;
  if (chunk_dormant.size() < num_chunks) chunk_dormant.resize(num_chunks);
  if (sink != nullptr && chunk_counters.size() < num_chunks)
    chunk_counters.resize(num_chunks);
  // Counters for parked vertices: sleepers are active in the LOCAL
  // model, so when a sink is installed they must be charged each round
  // exactly as the no-calendar engine would — the engine walks the
  // calendar (O(sleeping), only when traced) instead of stepping them.
  trace::ChunkCounters sleep_counters;

  std::size_t round = 0;
  while (awake_count > 0 || calendar.sleeping() > 0) {
    ++round;
    // Wake phase: the woken vertices' frozen states already sit in
    // BOTH buffers, so setting their awake bits is the whole
    // transition.
    if (parking) {
      const std::vector<Vertex>& woken = calendar.take(round);
      for (const Vertex v : woken)
        awake_words[v >> 6] |= std::uint64_t{1} << (v & 63);
      awake_count += woken.size();
    }
    const std::size_t asleep = calendar.sleeping();
    if (round > cap) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "round cap exceeded: round %llu with %llu vertices "
                    "still active (cap %llu) — non-terminating run?",
                    static_cast<unsigned long long>(round),
                    static_cast<unsigned long long>(awake_count + asleep),
                    static_cast<unsigned long long>(cap));
      detail::contract_failure("invariant", "round <= cap", __FILE__,
                               __LINE__, msg);
    }
    result.metrics.active_per_round.push_back(awake_count + asleep);
    result.metrics.skipped_steps += asleep;
    if (parking) result.metrics.parked_per_round.push_back(asleep);
    const auto round_start = Clock::now();

    // This round's write side; the other one is the frozen read side.
    // Every awake vertex writes only its own slots; dormant vertices'
    // slots are never written, so reads of their frozen state are safe.
    State* const next_buf = bufs[round & 1];
    const State* const read_buf = bufs[1 - (round & 1)];

    pool.parallel_for_chunks(
        n, grain,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          auto& dormant = chunk_dormant[chunk];
          dormant.clear();
          trace::ChunkCounters* counters = nullptr;
          if (sink != nullptr) {
            counters = &chunk_counters[chunk];
            counters->reset(num_phases);
          }
          // Shared null stream for algorithms that never draw: keeps
          // the step signature uniform without building n streams.
          [[maybe_unused]] Xoshiro256 null_rng(0);
          RoundView<State> view(g, read_buf);
          Xoshiro256* const rng_streams = [&]() -> Xoshiro256* {
            if constexpr (algorithm_uses_rng<A>)
              return rng.data();
            else
              return nullptr;
          }();
          std::uint32_t* const rounds_out = result.metrics.rounds.data();
          std::uint8_t* const committed_out = committed.data();
          // Set-bit walk over the chunk's slice of the awake bitset.
          const std::uint64_t* const words = awake_words.data();
          for (std::size_t w = begin >> 6; (w << 6) < end; ++w) {
            const std::size_t base = w << 6;
            std::uint64_t bits = words[w];
            if (base < begin) bits &= ~std::uint64_t{0} << (begin - base);
            if (end - base < 64)
              bits &= (std::uint64_t{1} << (end - base)) - 1;
            while (bits != 0) {
              const auto b = static_cast<unsigned>(std::countr_zero(bits));
              bits &= bits - 1;
              detail_engine::step_one(
                  algo, g, round, static_cast<Vertex>(base + b), view,
                  read_buf, next_buf, committed_out, outputs, rounds_out,
                  rng_streams, null_rng, parking, counters, dormant);
            }
          }
        });
    const std::size_t stepped = awake_count;

    // Sleeper accounting, BEFORE parking this round's new sleepers
    // (those were stepped above and already counted by their chunks).
    // A parked vertex is charged exactly as the no-calendar engine
    // would charge it: it is running, merely simulated for free.
    if (sink != nullptr && asleep > 0) {
      sleep_counters.reset(num_phases);
      calendar.for_each_sleeping([&](Vertex v) {
        if (!committed[v]) {
          ++sleep_counters.charged;
          if constexpr (trace::PhaseTraced<A>)
            ++sleep_counters.phase_charged[
                algo.trace_phase_of(v, round, read_buf[v])];
        }
        sleep_counters.volume_bytes +=
            static_cast<std::uint64_t>(sizeof(State)) * g.degree(v);
      });
    }

    // Round barrier: apply the dormancy deltas. Each dormant vertex's
    // last write is frozen into the other buffer (so future rounds'
    // single-buffer reads see it without republication), its awake bit
    // is cleared, and parked vertices enter the calendar — serially,
    // touching per-vertex slots only.
    std::size_t dormant_total = 0;
    State* const other_buf = bufs[1 - (round & 1)];
    for (std::size_t c = 0; c < num_chunks; ++c) {
      for (const auto& [v, wake] : chunk_dormant[c]) {
        other_buf[v] = next_buf[v];
        awake_words[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
        if (wake != 0) calendar.schedule(v, wake);
      }
      dormant_total += chunk_dormant[c].size();
    }
    awake_count -= dormant_total;

    result.metrics.round_wall_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - round_start)
            .count()));

    if (sink != nullptr) {
      trace::RoundEvent event;
      event.round = round;
      event.active = stepped + asleep;
      event.asleep = asleep;
      round_phase_charged.assign(num_phases, 0);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const auto& counters = chunk_counters[c];
        event.charged += counters.charged;
        event.committed += counters.committed;
        event.terminated += counters.terminated;
        event.volume_bytes += counters.volume_bytes;
        for (std::size_t p = 0; p < num_phases; ++p)
          round_phase_charged[p] += counters.phase_charged[p];
      }
      if (asleep > 0) {
        event.charged += sleep_counters.charged;
        event.volume_bytes += sleep_counters.volume_bytes;
        for (std::size_t p = 0; p < num_phases; ++p)
          round_phase_charged[p] += sleep_counters.phase_charged[p];
      }
      event.wall_ns = result.metrics.round_wall_ns.back();
      event.phase_charged = round_phase_charged;
      sink->on_round(event);
    }
  }
  // One-pass measure rollup (vertex-avg / edge-avg / worst-case /
  // awake): makes the Metrics accessors O(1) and fills the edge-decay
  // sequence. Purely derived from `rounds` + the graph, so it shares
  // the byte-identity contract.
  result.metrics.finalize(g);

  if (sink != nullptr) {
    trace::RunEndEvent end;
    end.rounds = result.metrics.active_per_round.size();
    end.round_sum = result.metrics.round_sum();
    end.worst_case = result.metrics.worst_case();
    end.edge_round_sum = result.metrics.edge_round_sum();
    end.num_edges = g.num_edges();
    end.wall_ns = result.metrics.total_wall_ns();
    end.skipped_steps = result.metrics.skipped_steps;
    end.worker_load = pool.worker_load();
    sink->on_run_end(end);
  }

  // Every vertex that left the frontier committed on the way out, so
  // the dense array IS the output vector; the fallback only covers
  // vertices that never ran (n == 0 is the only such case today).
  for (Vertex v = 0; v < n; ++v)
    if (!committed[v]) outputs[v] = algo.output(v, buf0[v]);
  result.outputs = std::move(outputs);
  // Dormancy freezes copied every vertex's final state into both
  // buffers, and the loop only exits with every vertex terminated — so
  // buffer 0 already IS the final-states vector, no collapse pass.
  if (opt.want_final_states) result.final_states = std::move(buf0);
  return result;
}

}  // namespace valocal
