// TraceCollector: the library's standard TraceSink. Buffers the event
// stream of any number of runs and renders it three ways:
//
//   - print_phase_table: per-run VA / WC / round-sum / wall-clock
//     breakdown by phase, for humans (valocal_cli --phase-table);
//   - write_chrome_trace: Chrome-trace / Perfetto JSON ("load the file
//     in chrome://tracing or ui.perfetto.dev") with phase spans, runs,
//     per-round slices and an active-count counter track;
//   - write_run_records_jsonl: one JSON object per run — graph
//     parameters, caller context (algo, seed, threads, ...),
//     per-phase metrics, per-round series including communication
//     volume, and worker-load counters — for regression tracking.
//
// Semantic mode: write_run_records_jsonl(os, /*include_timing=*/false)
// omits every schedule-dependent field (wall-clock, worker load,
// thread count, timestamps). The result is byte-identical across
// num_threads/grain for a fixed (graph, algorithm, seed) — the
// determinism contract extended to traces, enforced by
// tests/test_trace.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace valocal::trace {

/// One recorded round (RoundEvent with the phase counts copied out).
struct RoundSample {
  std::size_t round = 0;
  std::size_t active = 0;
  std::size_t asleep = 0;  // parked by wake scheduling (0 no-parking)
  std::size_t charged = 0;
  std::size_t committed = 0;
  std::size_t terminated = 0;
  std::uint64_t volume_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t wall_ns = 0;
  std::vector<std::size_t> phase_charged;
};

/// One recorded engine run.
struct RunRecord {
  std::string engine;
  std::string span;  // phase-span path active at run begin ("mis", ...)
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t num_threads = 1;
  std::size_t state_bytes = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> phase_names;
  std::vector<RoundSample> rounds;
  // Totals from RunEndEvent.
  std::uint64_t round_sum = 0;
  std::size_t worst_case = 0;
  std::uint64_t edge_round_sum = 0;  // sum_e max(r(u), r(v)); 0 pre-summary
  std::uint64_t wall_ns = 0;
  std::uint64_t messages = 0;
  std::uint64_t skipped_steps = 0;  // wake-scheduling savings
  std::vector<std::uint64_t> worker_chunks;   // schedule-dependent
  std::vector<std::uint64_t> worker_indices;  // schedule-dependent
  double begin_us = 0.0;  // relative to the collector's epoch
};

/// Per-phase aggregate of one run (the phase-table row material).
struct PhaseStats {
  std::string name;
  std::size_t rounds = 0;        // rounds in which the phase was charged
  std::uint64_t round_sum = 0;   // sum of per-round charged counts
  double vertex_avg = 0.0;       // round_sum / n
  std::size_t worst_case = 0;    // == rounds: the phase's round span
  double wall_ns = 0.0;          // wall split by charged share (approx)
};

class TraceCollector : public TraceSink {
 public:
  TraceCollector();

  /// Key/value pairs stamped into every run record ("algo": "mis",
  /// "gen": "adversarial", ...). Later duplicates overwrite.
  void set_context(const std::string& key, const std::string& value);

  // TraceSink interface.
  void on_run_begin(const RunInfo& info,
                    std::span<const char* const> phases) override;
  void on_round(const RoundEvent& event) override;
  void on_run_end(const RunEndEvent& event) override;
  void on_phase_begin(const char* name) override;
  void on_phase_end(const char* name) override;

  const std::vector<RunRecord>& runs() const { return runs_; }

  /// Exact decomposition: the returned round_sums total the run's
  /// round_sum(). A run without declared phases yields one row named
  /// after its span (or "(run)").
  static std::vector<PhaseStats> phase_breakdown(const RunRecord& run);

  /// Human-readable per-phase breakdown of every recorded run.
  void print_phase_table(std::ostream& os) const;

  /// Chrome-trace JSON ({"traceEvents": [...]}).
  void write_chrome_trace(std::ostream& os) const;

  /// JSONL: one run record per line. include_timing=false selects
  /// semantic mode (see file comment).
  void write_run_records_jsonl(std::ostream& os,
                               bool include_timing = true) const;

 private:
  struct SpanSample {
    std::string path;
    double begin_us = 0.0;
    double end_us = 0.0;
  };

  double now_us() const;
  std::string span_path() const;

  std::uint64_t epoch_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> open_spans_;
  std::vector<double> open_span_begin_us_;
  std::vector<SpanSample> closed_spans_;
  std::vector<RunRecord> runs_;
  bool run_open_ = false;
};

}  // namespace valocal::trace
