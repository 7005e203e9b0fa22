// The segmentation scheme of Section 7.5 with algorithm A = the
// (Delta+1)-coloring plan on each freshly formed H-set (auxiliary
// palette A+1; substitution S2 makes its Tcol = O(a log a + log* n)
// rounds instead of the paper's O(a + log* n)), algorithm B = orient
// within an H-set towards the larger auxiliary color (acyclic, length
// <= A) and across H-sets towards the later set, algorithm C = the
// wait-for-parents recoloring of the whole segment from the palette
// {0..A}. Two instances:
//
//   oa (Section 7.4, Theorem 7.9): two segments (two_phase_segments),
//      the first formed while the population decays to O(n / log n);
//      picks tagged <c, segment> (interleaved palette), 2(A+1) = O(a)
//      colors, vertex-averaged O~(a log log n).
//   ka (Section 7.7, Theorem 7.16): k segments (make_segments), each
//      with its own palette block; O(k a) colors, vertex-averaged
//      O~(a log^(k) n).
//
// Schedule, in execution order over the segments:
//   [one block per H-set of the segment: its Partition round, then the
//    Tcol plan rounds on G(H_i)]
//   [the segment's recoloring stage, r*(A+1)+2 rounds for r H-sets:
//    chains span at most r*(A+1) levels]
//
// Corollary 7.17: k = rho(n) gives O(a log* n) colors with
// O~(a log* n) vertex-averaged complexity.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "algo/result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/partition.hpp"
#include "algo/segmentation.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class ColoringKaAlgo {
 public:
  /// Field order sets sizeof(State), and so the bytes every round
  /// copies: `pick` fills the 4 bytes after the base's `hset` that
  /// would otherwise pad `aux` to its 8-byte alignment. The final color
  /// is not stored: output() derives it from `pick` and the segment of
  /// `hset`.
  struct State : PartitionState {
    std::int32_t pick = -1;  // recoloring pick in {0..A}; -1 = none
    std::uint64_t aux = 0;   // (Delta+1)-plan color inside the H-set
  };
  static_assert(sizeof(State) == 16);
  using Output = int;

  /// Section 7.7: k segments from make_segments, blocked palette. k is
  /// resolved by scheme_k (k <= 0 selects rho(n)).
  ColoringKaAlgo(std::size_t num_vertices, PartitionParams params, int k);
  ColoringKaAlgo(std::size_t num_vertices, PartitionParams params,
                 std::vector<Segment> segments, PaletteLayout layout);

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const {
    if (s.pick < 0) return -1;
    return static_cast<Output>(strides_.color(
        segment_of_hset(segments_, static_cast<std::size_t>(s.hset)),
        static_cast<std::uint64_t>(s.pick)));
  }

  /// Wake hint (WakeHinted). The schedule makes every idle stretch
  /// computable from the published state:
  ///   - an unsettled vertex acts only in partition rounds, so it
  ///     sleeps to the next one (past a segment's recoloring stage,
  ///     which it has no part in, to the next segment's blocks);
  ///   - an H-set member in its own block runs the plan only in the
  ///     rounds DegPlusOnePlan::next_active names, then sleeps through
  ///     the later blocks to its segment's recoloring stage;
  ///   - in that stage it waits for its parents' picks, which it
  ///     re-reads every round (round + 1).
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const;

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const {
    return segments_.size() * (params_.threshold() + 1);
  }
  int k() const { return static_cast<int>(segments_.size()); }
  const std::vector<Segment>& segments() const { return segments_; }
  std::size_t plan_rounds() const { return tcol_; }

  // Trace phases (trace::PhaseTraced): three per segment — partition,
  // auxiliary plan, recolor. Names are built at construction because
  // the segment count depends on (n, k).
  std::span<const char* const> trace_phases() const {
    return phase_names_;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    const std::size_t region = timeline_.locate(round);
    const std::size_t seg_idx = region / 2;
    if (region % 2 != 0) return 3 * seg_idx + 2;
    const std::size_t rel = round - timeline_.start(region);
    return 3 * seg_idx + (rel % (1 + tcol_) == 0 ? 0 : 1);
  }

 private:
  PartitionParams params_;
  std::vector<Segment> segments_;
  // Per segment: [blocks region][recolor region].
  SegmentTimeline timeline_;
  std::shared_ptr<const DegPlusOnePlan> plan_;
  std::size_t tcol_ = 0;
  PaletteStrides strides_;
  // Backing store for the c-strings handed out by trace_phases().
  std::vector<std::string> phase_name_store_;
  std::vector<const char*> phase_names_;
};

/// Section 7.4: the two-segment instance, interleaved palette.
ColoringResult compute_coloring_oa(const Graph& g, PartitionParams params);

/// k <= 0 selects k = rho(n) (Corollary 7.17).
ColoringResult compute_coloring_ka(const Graph& g, PartitionParams params,
                                   int k);

}  // namespace valocal
