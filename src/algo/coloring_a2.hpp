// O(a^2)-coloring in O(log log n) vertex-averaged complexity
// (Section 7.3, Theorem 7.6).
//
// Two phases over a globally synchronized schedule every vertex derives
// from (n, a, epsilon):
//
//   rounds [1, t1]           — Procedure Partition forms H_1..H_t1,
//                              t1 ~ c' log log n chosen so the active
//                              population decays to O(n / log n);
//   rounds (t1, t1+S]        — full Arb-Linial ladder (S = O(log* n)
//                              steps) on G(H_1 u .. u H_t1), parents =
//                              same-segment neighbors with larger
//                              (hset, ID); colors tagged <c, 1>;
//   rounds (t1+S, ell+S]     — Partition resumes until every vertex has
//                              joined (ell = O(log n) total rounds);
//   rounds (ell+S, ell+2S]   — the ladder again on the second segment,
//                              colors tagged <c, 2>.
//
// Segment-1 vertices terminate after round t1+S; only the O(n / log n)
// stragglers pay the O(log n) tail, so the vertex-averaged complexity
// is O(log log n + log* n) = O(log log n). The palette is twice the
// ladder fixed point: O(a^2 log a) (substitution S1; O(a^2) exactly as
// in the paper once the non-constructive final Linial step is granted).
#pragma once

#include <memory>
#include <span>

#include "algo/arb_linial.hpp"
#include "algo/coloring_result.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class ColoringA2Algo {
 public:
  struct State : PartitionState {
    std::uint64_t lad_color = 0;  // ladder color; initialized to the ID
    std::int64_t final_color = -1;
  };
  using Output = int;

  ColoringA2Algo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex v, const Graph&, State& s) const { s.lad_color = v; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.final_color);
  }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const;

  std::size_t phase1_sets() const { return t1_; }
  std::size_t ladder_steps() const { return steps_; }

  // Trace phases (trace::PhaseTraced), mirroring the round ranges in
  // the file comment: partition.1 | ladder.1 | partition.2 | ladder.2.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    const std::size_t steps = std::max<std::size_t>(1, steps_);
    if (round <= t1_) return 0;
    if (round <= t1_ + steps) return 1;
    if (round <= t1_ + steps + (ell_ - t1_)) return 2;
    return 3;
  }

 private:
  static constexpr const char* kTracePhases[] = {
      "partition.1", "ladder.1", "partition.2", "ladder.2"};

  bool in_segment(std::int32_t hset, int segment) const {
    return segment == 1
               ? hset >= 1 && static_cast<std::size_t>(hset) <= t1_
               : static_cast<std::size_t>(hset) > t1_;
  }

  /// Runs one ladder step for vertices of `segment`; returns true when
  /// the vertex finished (terminates with a tagged color).
  bool ladder_round(Vertex v, std::size_t step_idx, int segment,
                    const RoundView<State>& view, State& next) const;

  PartitionParams params_;
  std::size_t t1_ = 0;    // phase-1 partition rounds
  std::size_t ell_ = 0;   // total partition rounds
  std::size_t steps_ = 0; // ladder steps (0 only for degenerate tiny n)
  std::shared_ptr<const ArbLinialLadder> ladder_;
  std::size_t num_vertices_;
};

ColoringResult compute_coloring_a2(const Graph& g, PartitionParams params);

}  // namespace valocal
