// Maximal Independent Set with vertex-averaged complexity
// O~(a + log* n) (Corollaries 8.4 / 8.5).
//
// Extension framework instantiation: iteration i computes an auxiliary
// (A+1)-coloring of the fresh H-set G(H_i) and then sweeps the
// auxiliary classes (the classical coloring -> MIS reduction): a vertex
// at its sweep slot joins the MIS unless some neighbor already did.
// Bonus early exit: any vertex that observes an MIS neighbor is
// dominated forever and terminates immediately as a non-member.
#pragma once

#include <memory>

#include "util/assertx.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/extension.hpp"
#include "algo/line_plan.hpp"
#include "algo/partition.hpp"
#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class MisAlgo {
 public:
  /// Field order sets sizeof(State), and so the bytes every round
  /// copies: `status` sits in the padding between the base's `hset`
  /// and the 8-byte-aligned `aux` (16 B, not 24).
  struct State : PartitionState {
    std::int8_t status = 0;  // 0 undecided, 1 in MIS, -1 dominated
    std::uint64_t aux = 0;
  };
  static_assert(sizeof(State) == 16);
  using Output = std::int8_t;

  MisAlgo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    VALOCAL_ENSURE(round <= schedule_.total_rounds(),
                   "mis schedule exhausted with active vertices");
    const auto& self = view.self();

    // Early exit: an MIS neighbor dominates this vertex forever. A
    // vertex exiting before joining an H-set marks hset = -1 so
    // neighbors stop counting it as partition-active.
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.neighbor_state(i).status == 1) {
        next.status = -1;
        if (self.hset == 0) next.hset = -1;
        return true;
      }

    const std::size_t iter = schedule_.iteration(round);
    const std::size_t pos = schedule_.position(round);

    if (pos == 0) {
      if (self.hset == 0)
        next.hset = partition_try_join(iter, view, params_.threshold());
      return false;
    }
    if (self.hset != static_cast<std::int32_t>(iter)) return false;

    const std::size_t plan_rounds = plan_->num_rounds();
    if (pos <= plan_rounds) {
      next.aux = same_set_plan_round(*plan_, pos - 1, view);
      return false;
    }

    const std::size_t slot = pos - plan_rounds - 1;
    if (self.aux != slot) return false;
    // No MIS neighbor observed (checked above): join.
    next.status = 1;
    return true;
  }

  Output output(Vertex, const State& s) const { return s.status; }

  /// Wake hint (WakeHinted). An undecided vertex must be stepped in
  /// the first round that shows it an MIS neighbor (early domination
  /// exit), so parking rests on where joins can happen: only in sweep
  /// slots. A join in a sweep slot is visible from the next round on,
  /// which is another sweep round or the next iteration's partition
  /// round, and every surviving vertex is awake in both: every sweep
  /// round hints round + 1, and the H_i members all terminate within
  /// their sweep, so the survivors are exactly the unsettled vertices.
  /// Hence during an iteration's partition and plan rounds no neighbor
  /// can newly enter the MIS, and
  ///   - an unsettled vertex parks from the partition round until the
  ///     sweep starts;
  ///   - a fresh H_i member runs the plan only in the rounds
  ///     DegPlusOnePlan::next_active names, then parks until the sweep
  ///     starts.
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    const std::size_t pos = schedule_.position(round);
    const std::size_t plan_rounds = plan_->num_rounds();
    if (pos > plan_rounds) return round + 1;  // sweeping
    // Plan round t sits at position t + 1; t = plan_rounds is the sweep.
    std::size_t t = plan_rounds;
    if (s.hset > 0) {
      if (pos == 0) return round + 1;  // just joined: plan round 0 next
      t = plan_->next_active(pos - 1, s.aux);
    }
    return std::max(round - pos + 1 + t, round + 1);
  }

  static constexpr bool uses_rng = false;

  const CompositionSchedule& schedule() const { return schedule_; }

  // Trace phases (trace::PhaseTraced), keyed off the composition
  // schedule's block geometry: the partition round, the auxiliary
  // (A+1)-coloring plan, and the class sweep that joins the MIS.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    const std::size_t pos = schedule_.position(round);
    if (pos == 0) return 0;
    return pos <= plan_->num_rounds() ? 1 : 2;
  }

 private:
  static constexpr const char* kTracePhases[] = {"partition", "aux_plan",
                                                 "select"};

  PartitionParams params_;
  std::shared_ptr<const DegPlusOnePlan> plan_;
  CompositionSchedule schedule_;
};

MisResult compute_mis(const Graph& g, PartitionParams params);

}  // namespace valocal
