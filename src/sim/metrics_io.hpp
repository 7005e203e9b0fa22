// Plot-ready CSV serialization of execution metrics: the per-round
// active-population decay series (Lemma 6.1's n_i) and the per-vertex
// round counts (r(v) histogram material).
//
// The integer-row tables (decay, rounds, histogram, round timings,
// edge decay) are formatted with std::to_chars and written one block
// at a time, so the stream's flags (width, base, showpos) and its
// locale's digit grouping no longer apply to those columns: they are
// always plain base-10. write_measures_csv still formats through the
// stream, so its doubles follow the stream's settings as before.
#pragma once

#include <iosfwd>

#include "sim/metrics.hpp"

namespace valocal {

/// "round,active\n1,1000\n..." — the decay curve.
void write_decay_csv(std::ostream& os, const Metrics& metrics);

/// "vertex,rounds\n0,3\n..." — per-vertex running times.
void write_rounds_csv(std::ostream& os, const Metrics& metrics);

/// "rounds,count\n1,512\n..." — the r(v) histogram. Every non-empty
/// bucket is emitted, including bucket 0, so counts always sum to n.
void write_rounds_histogram_csv(std::ostream& os, const Metrics& metrics);

/// "round,active,awake,wall_ns\n1,1000,940,52340\n..." — per-round
/// active population, the subset actually stepped (active minus
/// calendar-parked; equal to active when wake scheduling is off),
/// and the engine-measured wall-clock (run_local's round_wall_ns;
/// 0 when the metrics carry no timing data). The awake column makes
/// calendar-queue savings plottable round by round.
void write_round_timings_csv(std::ostream& os, const Metrics& metrics);

/// "round,active_edges\n1,3000\n..." — the edge-decay curve m_i under
/// the BGKO'22 cost max(r(u), r(v)): edges still charged in round i.
/// The edge analogue of write_decay_csv; empty below the header when
/// the metrics were never finalized against a graph.
void write_edge_decay_csv(std::ostream& os, const Metrics& metrics);

/// "measure,value\n..." — the full measure rollup in one plot-ready
/// table: round_sum, vertex_averaged, edge_round_sum, edge_averaged,
/// worst_case, awake_sum. Uses the O(1) summary when finalized, the
/// legacy scans otherwise (edge rows then read 0).
void write_measures_csv(std::ostream& os, const Metrics& metrics);

}  // namespace valocal
