// Shared plumbing for the reproduction benches: the workload catalog
// (substitution S5 in DESIGN.md), row formatting, and metric shorthands.
//
// Every bench binary runs standalone with no arguments, prints
// paper-style tables to stdout, and exits 0 only if all produced
// solutions validate.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "algo/hset_composition.hpp"
#include "algo/partition.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace valocal::bench {

/// Opt-in whole-process tracing: VALOCAL_TRACE=<path> installs a
/// TraceCollector for the bench's lifetime and writes every engine
/// run's record to <path> as JSONL at exit (plus <path>.trace.json,
/// the Chrome-trace timeline). Unset keeps the engines on their
/// null-observer fast path, so the tables never change either way.
inline void configure_tracing() {
  const char* path = std::getenv("VALOCAL_TRACE");
  if (path == nullptr || *path == '\0') return;
  static trace::TraceCollector collector;
  static const std::string jsonl_path = path;
  trace::set_sink(&collector);
  std::atexit([] {
    trace::set_sink(nullptr);
    std::ofstream jsonl(jsonl_path);
    collector.write_run_records_jsonl(jsonl);
    std::ofstream chrome(jsonl_path + ".trace.json");
    collector.write_chrome_trace(chrome);
    std::cout << "[trace: run records in " << jsonl_path
              << ", timeline in " << jsonl_path << ".trace.json]\n";
  });
  std::cout << "[trace: collecting run records]\n";
}

/// Runs `compute` inside a trace span named `entry`, the registry name
/// of the algorithm it runs. The registry opens that span around every
/// run it dispatches; a bench that calls a compute_* function directly
/// opens it here, so its run records under VALOCAL_TRACE carry the
/// entry's name too.
template <class Compute>
auto labelled(const char* entry, Compute&& compute) {
  VALOCAL_TRACE_PHASE(entry);
  return compute();
}

/// Installs the engine-wide worker-thread default from VALOCAL_THREADS
/// (unset/0 = 1, serial; a malformed or negative value aborts naming
/// the variable) and returns it. Benches call this first thing in
/// main() so every compute_* under a Table 1/Table 2 sweep exploits the
/// parallel round engine; results are byte-identical for every value,
/// so the tables themselves never change. Also hooks VALOCAL_TRACE (see
/// configure_tracing) so any bench can emit run records without code
/// changes.
inline std::size_t configure_engine_threads() {
  const std::size_t threads =
      std::max<std::size_t>(1, env_count("VALOCAL_THREADS", 1));
  set_engine_threads(threads);
  if (threads > 1)
    std::cout << "[engine: " << threads << " worker threads]\n";
  configure_tracing();
  return threads;
}

/// The adversarial workload matching the paper's partition lower
/// bounds: the complete (A+1)-ary tree, which Procedure Partition peels
/// exactly one level per round — Theta(log n / log a) worst case with
/// O(1) vertex-averaged complexity. Declared arboricity `a` stays
/// honest (trees have arboricity 1 <= a).
inline Graph adversarial_tree(std::size_t n, const PartitionParams& p) {
  return gen::dary_tree(n, p.threshold() + 1);
}

inline std::string fmt_ratio(double va, double wc) {
  if (va <= 0) return "-";
  return Table::num(wc / va, 1) + "x";
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Wait-heavy engine workload: the Section 6.2 H-set composition with
/// a per-H-set subroutine that terminates after 2 of its 64 budgeted
/// sub-rounds. Unjoined vertices therefore idle through ~63 no-op
/// rounds of every block — exactly the regime wake scheduling turns
/// from O(active) per round into O(awake + newly-woken). Used by
/// bench_micro's BM_EngineWaitHeavy* fixtures and bench_engine_scaling's
/// wake-scheduling section.
struct WaitHeavySub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t sub_rounds() const { return 64; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return t >= 1;  // early exit after 2 sub-rounds of the 64 budgeted
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

/// The wait-heavy workload's algorithm on n vertices (pair with
/// adversarial_tree(n, params) so the partition peels slowly).
inline HSetComposition<WaitHeavySub> wait_heavy_composition(
    std::size_t n, const PartitionParams& params) {
  return HSetComposition<WaitHeavySub>(n, params, WaitHeavySub{});
}

/// Dense-then-tail engine workload: every vertex mixes neighbor state
/// for a fixed prefix of rounds — the frontier stays the FULL vertex
/// set — then all but a 1/64 tail terminate at once and the tail runs
/// on to round 40, so the bitset walk crosses words with one awake bit
/// each. The hint is the trivial sound one (next round), so the wake
/// path runs with an empty calendar.
struct DensePhaseAlgo {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  void init(Vertex v, const Graph&, State& s) const { s.x = v + 1; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + round;
    for (std::size_t i = 0; i < view.degree(); ++i)
      mix += view.neighbor_state(i).x;
    next.x = mix;
    if (round < 8) return false;
    return (v & 63) != 0 || round >= 40;
  }

  std::size_t next_wake(Vertex, std::size_t round, const State&) const {
    return round + 1;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

/// Marks a failed validation; benches report it and exit nonzero.
class ValidationTracker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "VALIDATION FAILED: " << what << "\n";
      failed_ = true;
    }
  }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

}  // namespace valocal::bench
