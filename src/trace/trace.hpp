// Engine observability: the RunObserver/TraceSink hook the round
// engine reports to, plus the phase-span scaffolding the composed
// entry points use to attribute cost.
//
// Design constraints, in order:
//
//   1. Null-observer fast path. When no sink is installed (the
//      default), run_local behaves exactly as before: the
//      per-vertex tracing branch tests one pointer that is nullptr, no
//      counters are allocated, no events fire. Installing a sink must
//      never change outputs or semantic Metrics.
//
//   2. Byte-determinism of semantic fields. Every semantic field of a
//      RoundEvent (active/charged/committed/terminated counts, volume,
//      per-phase charged counts) is a sum over the round's
//      stepped vertex set. Sums commute, so the values are identical
//      for every EngineConfig threads/grain — the engine merges
//      per-chunk counters, and the totals cannot depend on the
//      schedule. Only wall_ns (and the collector's own timestamps)
//      vary between runs.
//
//   3. Exact round-sum decomposition. A vertex is CHARGED in round i
//      iff i <= r(v) — equivalently, iff its output was not yet frozen
//      when the round started (kCommit vertices keep executing but are
//      charged nothing further). Hence sum over rounds of `charged`
//      equals Metrics::round_sum() exactly, and when an algorithm
//      classifies its charged vertices into phases (see PhaseTraced),
//      the per-phase round-sums partition the total.
//
// Phase attribution has two cooperating mechanisms:
//
//   - Code spans: VALOCAL_TRACE_PHASE("a2logn") is an RAII scope
//     (nestable); runs started inside it are attributed to the span
//     path ("mis", "seg/partition", ...). The registry opens one per
//     dispatched spec run, named after the spec.
//   - Per-vertex classifiers: an algorithm satisfying PhaseTraced
//     names its internal phases ("partition", "color", ...) and maps
//     each charged (vertex, round, previous state) to one of them, so
//     a SINGLE run_local execution decomposes exactly even when phases
//     interleave within a round (e.g. a2logn colors last round's
//     joiners while the rest still partitions).
//
// The sink API is deliberately push-only and allocation-light; the
// provided TraceCollector (trace/collector.hpp) turns the stream into
// phase tables, Chrome-trace JSON and JSONL run records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace valocal::trace {

/// Immutable facts about a run, reported once before its first round.
struct RunInfo {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t num_threads = 1;    // engine workers
  std::size_t grain = 0;          // vertices per chunk
  std::size_t state_bytes = 0;    // sizeof(State)
  std::uint64_t seed = 0;
};

/// One synchronous round, reported after the round's merge completes.
/// All fields except wall_ns are semantic (determinism contract).
struct RoundEvent {
  std::size_t round = 0;       // 1-based engine round
  /// Vertices running this round in the LOCAL-model sense: stepped
  /// plus asleep. Identical with and without parking.
  std::size_t active = 0;
  /// Of `active`, the vertices the wake-scheduled engine parked (their
  /// no-op steps were skipped). 0 only under ScopedNoParking (the
  /// no-calendar reference) and for algorithms without a next_wake
  /// hint. Semantic for a fixed parking setting,
  /// but intentionally different between the two — it measures the
  /// simulator work saved.
  std::size_t asleep = 0;
  std::size_t charged = 0;     // round-sum contribution (r(v) still open)
  std::size_t committed = 0;   // outputs frozen this round (r(v) stamped)
  std::size_t terminated = 0;  // vertices that stopped executing
  /// Communication volume: sum over stepped vertices of
  /// sizeof(State) * degree(v) — the published-state bytes a LOCAL
  /// "send your state to all neighbors" schedule would move.
  std::uint64_t volume_bytes = 0;
  std::uint64_t wall_ns = 0;   // NOT semantic: engine-measured time
  /// Charged count per algorithm phase, parallel to the names passed
  /// to on_run_begin; empty when the algorithm declares no phases.
  /// The entries sum to `charged`. Valid only during the callback.
  std::span<const std::size_t> phase_charged{};
};

/// Run totals, reported once after the last round.
struct RunEndEvent {
  std::size_t rounds = 0;         // engine rounds executed
  std::uint64_t round_sum = 0;    // sum_v r(v)
  std::size_t worst_case = 0;     // max_v r(v)
  /// BGKO'22 edge accounting: sum_e max(r(u), r(v)) and the edge
  /// count it averages over. Both 0 when the producer predates the
  /// measure-generic summary (hand-built events in tests).
  std::uint64_t edge_round_sum = 0;
  std::size_t num_edges = 0;
  std::uint64_t wall_ns = 0;      // NOT semantic
  /// Total vertex-rounds skipped by wake scheduling (sum of the
  /// per-round `asleep` counts); 0 only under ScopedNoParking and for
  /// unhinted algorithms.
  std::uint64_t skipped_steps = 0;
  /// Per-thread chunk/index counters from the engine's pool (slot 0 =
  /// the dispatching thread). Schedule-dependent — load-imbalance
  /// evidence, not semantic.
  std::span<const ThreadPool::WorkerLoad> worker_load{};
};

/// Receiver of engine events. Default-implemented no-ops so sinks only
/// override what they consume. Single-threaded: the engine reports
/// from the dispatching thread only.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `phases` names the algorithm's internal phases (possibly empty);
  /// the span data stays valid until the matching on_run_end.
  virtual void on_run_begin(const RunInfo&,
                            std::span<const char* const> /*phases*/) {}
  virtual void on_round(const RoundEvent&) {}
  virtual void on_run_end(const RunEndEvent&) {}
  virtual void on_phase_begin(const char* /*name*/) {}
  virtual void on_phase_end(const char* /*name*/) {}
};

/// Per-thread sink slot. nullptr (the default) selects the
/// null-observer fast path in the engine. The slot is thread_local:
/// an engine run consults the sink of the thread that DISPATCHED it, so
/// concurrent trials on different threads (sim/batch.hpp) each observe
/// their own sink — or none — without racing on a shared pointer. A
/// sink installed on the main thread is NOT visible to pool workers;
/// run_batch bridges that gap by taping events per trial
/// (trace/replay.hpp) and replaying them on the caller. Install or
/// uninstall only between runs of the installing thread.
inline TraceSink*& detail_sink() {
  static thread_local TraceSink* sink = nullptr;
  return sink;
}

inline TraceSink* sink() { return detail_sink(); }
inline void set_sink(TraceSink* s) { detail_sink() = s; }

/// Installs a sink for the current scope and restores the previous one
/// on exit (tools and tests use this; benches install for the whole
/// process instead).
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* s) : previous_(sink()) { set_sink(s); }
  ~ScopedSink() { set_sink(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  TraceSink* previous_;
};

/// RAII phase span. Captures the sink at entry so an install/uninstall
/// inside the scope still sees balanced begin/end events.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name) : name_(name), sink_(sink()) {
    if (sink_ != nullptr) sink_->on_phase_begin(name_);
  }
  ~PhaseScope() {
    if (sink_ != nullptr) sink_->on_phase_end(name_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  TraceSink* sink_;
};

/// An algorithm opts into per-phase attribution by naming its phases
/// and classifying each charged vertex. trace_phase_of receives the
/// vertex's PREVIOUS-round state (the one the step reads), so the
/// classification is well-defined under the double buffer and
/// independent of the schedule.
template <class A>
concept PhaseTraced = requires(const A a, const typename A::State& s) {
  {
    a.trace_phases()
  } -> std::convertible_to<std::span<const char* const>>;
  {
    a.trace_phase_of(Vertex{0}, std::size_t{1}, s)
  } -> std::convertible_to<std::size_t>;
};

/// Per-chunk staging counters the parallel engine merges (by
/// summation, hence order-independently) into one RoundEvent.
struct ChunkCounters {
  std::size_t charged = 0;
  std::size_t committed = 0;
  std::size_t terminated = 0;
  std::uint64_t volume_bytes = 0;
  std::vector<std::size_t> phase_charged;

  void reset(std::size_t num_phases) {
    charged = committed = terminated = 0;
    volume_bytes = 0;
    phase_charged.assign(num_phases, 0);
  }
};

}  // namespace valocal::trace

// Nestable phase span: VALOCAL_TRACE_PHASE("partition"); the variable
// name is uniquified so several spans can share one scope.
#define VALOCAL_TRACE_PHASE_CONCAT2(a, b) a##b
#define VALOCAL_TRACE_PHASE_CONCAT(a, b) VALOCAL_TRACE_PHASE_CONCAT2(a, b)
#define VALOCAL_TRACE_PHASE(name)                          \
  ::valocal::trace::PhaseScope VALOCAL_TRACE_PHASE_CONCAT( \
      valocal_trace_phase_scope_, __COUNTER__)(name)
