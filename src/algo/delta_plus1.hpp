// (Delta+1)-vertex-coloring with vertex-averaged complexity
// O~(a + log* n) (Corollary 8.3; substitution S3 makes the a-term
// O(a log a) instead of O(sqrt(a) log^2.5 a)).
//
// Extension framework instantiation: in iteration i, the vertices of
// the fresh H-set H_i run a (deg+1)-list-coloring of G(H_i) where the
// list of v is {0..Delta(G)} minus the final colors of v's
// already-terminated neighbors — by induction |list| >= deg_active + 1.
// The list coloring itself is the S3 plan: an auxiliary (A+1)-coloring
// of G(H_i) (DegPlusOnePlan, O(a log a + log* n) rounds) followed by an
// (A+1)-round sweep over auxiliary classes in which each class greedily
// picks the smallest free list color. A vertex terminates at its own
// sweep slot, so iterations cost O(a log a + log* n) each and
// Corollary 6.4 gives the vertex-averaged bound.
#pragma once

#include <memory>
#include <vector>

#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "algo/coloring_result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/extension.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class DeltaPlusOneAlgo {
 public:
  /// Field order sets sizeof(State), and so the bytes every round
  /// copies: `color` fills the 4 bytes after the base's `hset` that
  /// would otherwise pad `aux` to its 8-byte alignment (16 B, not 24).
  struct State : PartitionState {
    std::int32_t color = -1;  // final color; -1 until decided
    std::uint64_t aux = 0;
  };
  static_assert(sizeof(State) == 16);
  using Output = int;

  DeltaPlusOneAlgo(std::size_t num_vertices, std::size_t max_degree,
                   PartitionParams params);

  /// Definition 8.1 in the flesh: vertices listed in `preset` (color
  /// >= 0) enter with their colors fixed — they announce once and
  /// terminate, and the rest of the execution extends the partial
  /// solution without ever changing it. The preset must be a proper
  /// partial coloring within the Delta+1 palette.
  void set_partial_solution(std::vector<std::int32_t> preset) {
    preset_ = std::move(preset);
  }

  void init(Vertex v, const Graph&, State& s) const {
    s.aux = v;
    if (v < preset_.size() && preset_[v] >= 0) s.color = preset_[v];
  }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    VALOCAL_ENSURE(round <= schedule_.total_rounds(),
                   "delta_plus1 schedule exhausted with active vertices");
    const auto& self = view.self();

    // Preset vertex (partial-solution extension): announce and stop,
    // marking itself non-active for the partition's counting.
    if (self.color >= 0) {
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
      // Auxiliary (A+1)-coloring of G(H_i).
      std::vector<std::uint64_t>& nbrs =
          thread_scratch<DeltaPlusOneAlgo, std::uint64_t>();
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == self.hset) nbrs.push_back(nbr.aux);
      }
      next.aux = plan_->advance(pos - 1, self.aux, nbrs);
      return false;
    }

    // Sweep: auxiliary class c acts in sweep slot c.
    const std::size_t slot = pos - plan_rounds - 1;
    if (self.aux != slot) return false;

    // List of v: {0..Delta} minus colors already fixed at any neighbor
    // (terminated neighbors and earlier sweep slots of the same H-set).
    std::vector<char>& taken = thread_scratch<DeltaPlusOneAlgo, char>();
    taken.assign(max_degree_ + 1, 0);
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      if (nbr.color >= 0) taken[nbr.color] = 1;
    }
    std::int32_t pick = 0;
    while (pick <= static_cast<std::int32_t>(max_degree_) && taken[pick])
      ++pick;
    VALOCAL_ENSURE(pick <= static_cast<std::int32_t>(max_degree_),
                   "Delta+1 palette exhausted");
    next.color = pick;
    return true;
  }

  Output output(Vertex, const State& s) const { return s.color; }

  /// Wake hint (WakeHinted): the composition schedule makes idle
  /// stretches exactly computable from the published state. A vertex
  /// that has not joined an H-set steps usefully only in partition
  /// rounds (position 0); every in-between round is a provable no-op
  /// (it fails the `hset == iter` guard without writing), so it parks
  /// until the next iteration opens. A vertex inside its own
  /// iteration's sweep acts only at its auxiliary class's slot; the
  /// earlier sweep rounds are no-ops too. Plan rounds refresh `aux`
  /// every round and stay unhinted.
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    const std::size_t block = schedule_.block();
    std::size_t wake = round + 1;
    if (s.hset <= 0) {
      // Next partition round: position 0 of the following iteration.
      wake = schedule_.iteration(round) * block + 1;
    } else if (schedule_.position(round) > plan_->num_rounds()) {
      // Sweeping: acts (and terminates) only at its own slot.
      wake = (static_cast<std::size_t>(s.hset) - 1) * block + 1 +
             plan_->num_rounds() + 1 +
             static_cast<std::size_t>(s.aux);
    }
    return std::max(wake, round + 1);
  }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const { return max_degree_ + 1; }
  const CompositionSchedule& schedule() const { return schedule_; }

  // Trace phases (trace::PhaseTraced): partition round, auxiliary
  // (A+1)-coloring plan, greedy list-color sweep.
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
                                                 "sweep"};

  PartitionParams params_;
  std::size_t max_degree_;
  std::shared_ptr<const DegPlusOnePlan> plan_;
  CompositionSchedule schedule_;
  std::vector<std::int32_t> preset_;
};

ColoringResult compute_delta_plus1(const Graph& g, PartitionParams params);

/// Extends a proper partial (Delta+1)-coloring (entries >= 0 are fixed,
/// -1 means uncolored) to the whole graph without modifying it —
/// Definition 8.1's extension-from-any-partial-solution property,
/// exercised end to end.
ColoringResult extend_delta_plus1(const Graph& g, PartitionParams params,
                                  std::vector<std::int32_t> partial);

}  // namespace valocal
