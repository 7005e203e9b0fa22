// Execution metrics of a LOCAL-model run (Section 2 of the paper).
//
// r(v) is the number of rounds vertex v executes, counting the round in
// which it publishes its final output and terminates. The paper's
// measures follow:
//   RoundSum      = sum_v r(v)
//   vertex-avg    = RoundSum / n            (T-bar)
//   worst-case    = max_v r(v)              (classical round complexity)
// active_per_round[i] is n_{i+1}: the number of vertices still running
// in round i+1 — Lemma 6.1's decay sequence.
//
// Beyond the 2018 paper's vertex-averaged measure, the accounting is
// measure-generic: Balliu–Ghaffari–Kuhn–Olivetti (arXiv:2208.08213)
// charge an edge {u, v} the larger of its endpoints' running times,
//   EdgeRoundSum  = sum_e max(r(u), r(v))
//   edge-avg      = EdgeRoundSum / m
// and the wake-scheduled engine's own cost model counts only awake
// vertex-rounds (active minus parked). All of these are folded into
// one MeasureSummary computed in a single pass at run end, so the
// accessors are O(1) on engine-produced metrics instead of rescanning
// `rounds` per call.
#pragma once

#include <cstdint>
#include <vector>

namespace valocal {

class Graph;

/// The complexity measures the registry's structured bounds and the
/// reporting layer are keyed on. Vertex-averaged is the 2018 paper's
/// measure; edge-averaged follows BGKO'22's max-endpoint convention;
/// awake is the wake-scheduler's simulator-cost measure.
enum class Measure : std::uint8_t {
  kVertexAveraged,  // RoundSum / n
  kEdgeAveraged,    // sum_e max(r(u), r(v)) / m
  kWorstCase,       // max_v r(v)
  kAwake,           // awake vertex-rounds (active - parked)
};

/// Long name for prose/docs ("vertex-averaged") and short tag for
/// table columns ("VA"). Both total functions over the enum.
const char* measure_name(Measure m);
const char* measure_tag(Measure m);

/// One-pass rollup of every measure, computed by Metrics::finalize at
/// run end. num_vertices/num_edges are recorded so the averaged forms
/// need no external context.
struct MeasureSummary {
  std::uint64_t round_sum = 0;       // sum_v r(v)
  std::uint64_t edge_round_sum = 0;  // sum_e max(r(u), r(v))
  std::size_t worst_case = 0;        // max_v r(v)
  std::uint64_t awake_sum = 0;       // sum_i (n_i - parked_i)
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
};

struct Metrics {
  std::vector<std::uint32_t> rounds;            // r(v), size n
  std::vector<std::size_t> active_per_round;    // n_i for i = 1..T
  // Engine-measured wall-clock of each simulated round, in
  // nanoseconds (size T when produced by run_local). Unlike `rounds`
  // and `active_per_round` this is NOT part of the determinism
  // contract: it varies run to run and with the thread count — it
  // exists precisely so parallel-engine speedups are observable.
  std::vector<std::uint64_t> round_wall_ns;
  // Vertex-rounds the wake-scheduled engine skipped (vertices parked
  // in the calendar queue while counted in active_per_round). 0 only
  // under ScopedNoParking (the no-calendar reference) and for
  // algorithms without a next_wake hint. Simulator-cost accounting
  // only: the skipped steps are provably no-ops, so no semantic field
  // depends on this.
  std::uint64_t skipped_steps = 0;
  // Always 0: the engine has one frontier representation, so there is
  // nothing to switch. Exists only because the repository benchmark's
  // run record (perfbench/valocal_bench.cpp) sums it; that record is
  // its only reader.
  std::uint64_t frontier_switches = 0;
  // Vertices parked in the calendar queue in round i+1 (so
  // awake_i = active_per_round[i] - parked_per_round[i]). Filled only
  // by wake-scheduled run_local; empty means nothing was parked.
  // Deterministic like active_per_round: the calendar schedule is part
  // of the byte-identity contract. Sums to skipped_steps.
  std::vector<std::size_t> parked_per_round;
  // m_i for i = 1..worst_case: edges whose BGKO'22 cost
  // max(r(u), r(v)) is still >= i — the edge analogue of
  // active_per_round's decay sequence. Filled by finalize (it derives
  // deterministically from `rounds` and the graph, so it shares the
  // byte-identity contract). Empty on unfinalized metrics.
  std::vector<std::size_t> edge_active_per_round;
  // Valid iff summary_valid: the one-pass rollup finalize computed.
  // `rounds` stays the ground truth — code that edits metrics after a
  // run (sweep appends, sub-run splices) must call finalize again or
  // the accessors below would serve stale cached values.
  MeasureSummary summary;
  bool summary_valid = false;

  /// One pass over `rounds`, the graph's edge list, and
  /// active_per_round: fills `summary` + edge_active_per_round and
  /// makes the accessors O(1). Idempotent; recomputes from scratch.
  void finalize(const Graph& g);

  std::uint64_t round_sum() const {
    if (summary_valid) return summary.round_sum;
    std::uint64_t s = 0;
    for (auto r : rounds) s += r;
    return s;
  }

  double vertex_averaged() const {
    if (rounds.empty()) return 0.0;
    return static_cast<double>(round_sum()) /
           static_cast<double>(rounds.size());
  }

  std::size_t worst_case() const {
    if (summary_valid) return summary.worst_case;
    std::size_t m = 0;
    for (auto r : rounds) m = m > r ? m : r;
    return m;
  }

  /// sum_e max(r(u), r(v)) — requires finalize (the edge costs need
  /// the graph); 0 on unfinalized metrics.
  std::uint64_t edge_round_sum() const {
    return summary_valid ? summary.edge_round_sum : 0;
  }

  /// BGKO'22 edge-averaged complexity: EdgeRoundSum / m. 0 on
  /// unfinalized metrics and on edgeless graphs.
  double edge_averaged() const {
    if (!summary_valid || summary.num_edges == 0) return 0.0;
    return static_cast<double>(summary.edge_round_sum) /
           static_cast<double>(summary.num_edges);
  }

  /// Awake vertex-rounds: sum_i n_i minus the parked steps the wake
  /// scheduler elided. Equals RoundSum-as-simulated when hints are off.
  std::uint64_t awake_sum() const {
    if (summary_valid) return summary.awake_sum;
    std::uint64_t s = 0;
    for (auto a : active_per_round) s += a;
    return s >= skipped_steps ? s - skipped_steps : 0;
  }

  std::uint64_t total_wall_ns() const {
    std::uint64_t s = 0;
    for (auto ns : round_wall_ns) s += ns;
    return s;
  }
};

}  // namespace valocal
