// The segmentation scheme of Section 7.5 with algorithm A = null,
// algorithm B = the forest orientation of
// Parallelized-Forest-Decomposition (a pure function of the
// H-partition in this library: parents are the same-segment neighbors
// with larger (hset, ID)), algorithm C = Procedure Arb-Linial-Coloring
// (the full ladder). Two instances:
//
//   a2  (Section 7.3, Theorem 7.6): two segments (two_phase_segments),
//       the first formed while the population decays to O(n / log n);
//       colors tagged <c, segment> (interleaved palette). Vertex-
//       averaged O(log log n + log* n) = O(log log n), palette twice
//       the ladder fixed point: O(a^2 log a) (substitution S1; O(a^2)
//       exactly as in the paper once the non-constructive final Linial
//       step is granted).
//   ka2 (Section 7.6, Theorem 7.13): k segments (make_segments), each
//       with its own palette block. Vertex-averaged
//       O(log^(k) n + log* n), O(k a^2) colors.
//
// Schedule, in execution order over the segments:
//   [the segment's Partition rounds forming its H-sets]
//   [S = O(log* n) ladder rounds coloring the segment]
// A segment's vertices terminate at the end of its ladder; only the
// population still active after its Partition rounds pays for later
// segments.
//
// Corollaries 7.14/7.15: k = rho(n) yields O(a^2 log* n) colors with
// O(log* n) vertex-averaged complexity (O(log* n) colors for constant
// arboricity).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "algo/arb_linial.hpp"
#include "algo/result.hpp"
#include "algo/partition.hpp"
#include "algo/segmentation.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class ColoringKa2Algo {
 public:
  /// The final color is not stored: output() derives it from the last
  /// ladder color and the segment of `hset`.
  struct State : PartitionState {
    std::uint64_t lad_color = 0;  // ladder color; initialized to the ID
  };
  static_assert(sizeof(State) == 16);
  using Output = int;

  /// Section 7.6: k segments from make_segments, blocked palette. k is
  /// resolved by scheme_k (k <= 0 selects rho(n)).
  ColoringKa2Algo(std::size_t num_vertices, PartitionParams params,
                  int k);
  ColoringKa2Algo(std::size_t num_vertices, PartitionParams params,
                  std::vector<Segment> segments, PaletteLayout layout);

  void init(Vertex v, const Graph&, State& s) const { s.lad_color = v; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const {
    if (s.hset <= 0) return -1;
    return static_cast<Output>(strides_.color(
        segment_of_hset(segments_, static_cast<std::size_t>(s.hset)),
        s.lad_color));
  }

  /// Wake hint (WakeHinted): a vertex that joined an H-set idles for
  /// the rest of its partition region (wake: its ladder region's
  /// start); an unsettled vertex idles through other segments' ladder
  /// regions (wake: the next partition region's start).
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const;

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const {
    return segments_.size() * static_cast<std::size_t>(per_segment_);
  }
  int k() const { return static_cast<int>(segments_.size()); }
  const std::vector<Segment>& segments() const { return segments_; }
  std::size_t ladder_steps() const { return steps_; }

  // Trace phases (trace::PhaseTraced): two per segment — partition and
  // ladder — mirroring the region layout built in the constructor.
  std::span<const char* const> trace_phases() const {
    return phase_names_;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    return timeline_.locate(round);
  }

 private:
  PartitionParams params_;
  std::vector<Segment> segments_;
  SegmentTimeline timeline_;  // two regions per segment
  std::shared_ptr<const ArbLinialLadder> ladder_;
  std::size_t steps_ = 0;
  std::uint64_t per_segment_ = 1;  // one segment's palette
  PaletteStrides strides_;
  // Backing store for the c-strings handed out by trace_phases().
  std::vector<std::string> phase_name_store_;
  std::vector<const char*> phase_names_;
};

/// Section 7.3: the two-segment instance, interleaved palette.
ColoringResult compute_coloring_a2(const Graph& g, PartitionParams params);

/// k <= 0 selects k = rho(n) (Corollary 7.14).
ColoringResult compute_coloring_ka2(const Graph& g, PartitionParams params,
                                    int k);

}  // namespace valocal
