// O(a)-vertex-coloring in O~(a log log n) vertex-averaged complexity
// (Section 7.4, Theorem 7.9).
//
// Schedule (pure function of (n, a, epsilon), derived by every vertex):
//
//   Phase-1 blocks, iterations i = 1..t1 (t1 ~ c' log log n): each block
//   is one Partition round (forming H_i) followed by Tcol rounds of the
//   (Delta+1)-coloring plan on G(H_i) (max degree <= A there, so the
//   auxiliary palette is A+1; substitution S2 makes Tcol =
//   O(a log a + log* n) instead of the paper's O(a + log* n)).
//
//   Phase-1 recoloring, t1*(A+1)+2 rounds: edges are oriented within an
//   H-set towards the larger auxiliary color (acyclic, length <= A) and
//   across sets towards the later set; each vertex waits for all its
//   phase-1 parents to pick, then picks a free color from {0..A} and
//   terminates with tag 1. Chains span at most t1*(A+1) levels.
//
//   Phase-2 blocks for iterations t1+1..ell and a phase-2 recoloring
//   stage, identical but tagged 2 — paid only by the O(n / log n)
//   vertices still active after t1 partition rounds.
//
// Total palette 2(A+1) = O(a).
#pragma once

#include <memory>

#include "algo/coloring_result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class ColoringOaAlgo {
 public:
  /// Field order sets sizeof(State), and so the bytes every round
  /// copies: `pick` fills the 4 bytes after the base's `hset` that
  /// would otherwise pad `aux` to its 8-byte alignment. The final color
  /// is not stored: output() derives it from `pick` and the phase.
  struct State : PartitionState {
    std::int32_t pick = -1;    // recoloring pick in {0..A}; -1 = none
    std::uint64_t aux = 0;     // (Delta+1)-plan color inside the H-set
  };
  static_assert(sizeof(State) == 16);
  using Output = int;

  ColoringOaAlgo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const;

  /// Phase-1 picks take the even colors, phase-2 picks the odd ones.
  Output output(Vertex, const State& s) const {
    if (s.pick < 0) return -1;
    return 2 * s.pick + (in_phase(s.hset, 2) ? 1 : 0);
  }

  /// Wake hint (WakeHinted). The schedule makes every idle stretch
  /// computable from the published state:
  ///   - an unsettled vertex acts only in partition rounds, so it
  ///     sleeps to the next one (past the phase-1 recoloring stage,
  ///     which it has no part in, to the start of phase 2);
  ///   - an H-set member in its own block runs the plan only in the
  ///     rounds DegPlusOnePlan::next_active names, then sleeps through
  ///     the later blocks to its phase's recoloring stage;
  ///   - in that stage it waits for its parents' picks, which it
  ///     re-reads every round (round + 1).
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const;

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const {
    return 2 * (params_.threshold() + 1);
  }

  std::size_t phase1_sets() const { return t1_; }
  std::size_t plan_rounds() const { return tcol_; }

  // Trace phases (trace::PhaseTraced): partition rounds, the auxiliary
  // (A+1)-coloring plan, and the two recoloring stages.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    return static_cast<std::size_t>(locate(round).kind);
  }

 private:
  static constexpr const char* kTracePhases[] = {"partition", "aux_plan",
                                                 "recolor"};

  struct Region {
    int kind;           // 0 = partition round, 1 = plan round, 2 = recolor
    int phase;          // 1 or 2
    std::size_t index;  // iteration (kinds 0-1) or relative round (kind 2)
    std::size_t plan_round;  // for kind 1
  };
  Region locate(std::size_t round) const;

  bool in_phase(std::int32_t hset, int phase) const;

  /// Round of iteration i's partition round (1 <= i <= ell); i = ell + 1
  /// gives the start of the phase-2 recoloring stage.
  std::size_t block_start(std::size_t i) const;

  /// First round of the given phase's recoloring stage.
  std::size_t recolor_start(int phase) const;

  PartitionParams params_;
  std::size_t t1_ = 0;
  std::size_t ell_ = 0;
  std::size_t tcol_ = 0;
  std::size_t recolor1_ = 0, recolor2_ = 0;  // stage budgets
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

ColoringResult compute_coloring_oa(const Graph& g, PartitionParams params);

}  // namespace valocal
