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
#include <vector>

#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "algo/extension.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
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
      std::vector<std::uint64_t>& nbrs =
          thread_scratch<MisAlgo, std::uint64_t>();
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == self.hset) nbrs.push_back(nbr.aux);
      }
      next.aux = plan_->advance(pos - 1, self.aux, nbrs);
      return false;
    }

    const std::size_t slot = pos - plan_rounds - 1;
    if (self.aux != slot) return false;
    // No MIS neighbor observed (checked above): join.
    next.status = 1;
    return true;
  }

  Output output(Vertex, const State& s) const { return s.status; }

  // Deliberately NOT WakeHinted: an undecided vertex checks every round
  // whether a neighbor just entered the MIS (early domination exit), so
  // no round is a skippable no-op.
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

struct MisResult {
  std::vector<bool> in_set;
  Metrics metrics;
};

MisResult compute_mis(const Graph& g, PartitionParams params);

}  // namespace valocal
