// Procedure Partition (Section 6.1; originally [8], ch. 5 of [4]).
//
// Input: G with known arboricity a and a constant 0 < epsilon <= 2.
// Output: a partition of V into H-sets H_1, H_2, ..., H_ell
// (ell = O(log n)) such that every v in H_i has at most
// A = floor((2+epsilon) * a) neighbors in H_i u H_{i+1} u ... u H_ell.
//
// LOCAL realization: in round i every still-active vertex counts its
// active neighbors (those that have not joined an H-set, including
// vertices joining simultaneously this round — exactly the "same or
// later H-set" neighbors); if the count is at most A it joins H_i and
// terminates, publishing its H-index. Its worst case is Theta(log n)
// rounds while its vertex-averaged complexity is O(1) (Theorem 6.3),
// because each round retires at least an epsilon/(2+epsilon) fraction
// of the active vertices (Lemma 6.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "util/scratch.hpp"

namespace valocal {

struct PartitionParams {
  std::size_t arboricity = 1;
  double epsilon = 1.0;

  /// Degree threshold A = floor((2 + epsilon) * a), at least 2a + 1 so
  /// that a low-degree vertex always exists (average degree < 2a).
  std::size_t threshold() const {
    const auto raw = static_cast<std::size_t>(
        (2.0 + epsilon) * static_cast<double>(arboricity));
    return raw < 2 * arboricity + 1 ? 2 * arboricity + 1 : raw;
  }

  void check() const {
    VALOCAL_REQUIRE(arboricity >= 1, "arboricity must be >= 1");
    VALOCAL_REQUIRE(epsilon > 0.0 && epsilon <= 2.0,
                    "Procedure Partition needs 0 < epsilon <= 2");
  }
};

/// Per-vertex partition status embedded in every algorithm that builds
/// on Procedure Partition: 0 = still active, i >= 1 = joined H_i.
struct PartitionState {
  std::int32_t hset = 0;
};

/// Number of neighbors of v that are active (hset == 0) in the previous
/// round's snapshot — i.e., neighbors in the same or a later H-set if v
/// joins this round. Generic over the view: any RoundView whose State
/// derives from PartitionState.
template <class View>
std::size_t active_neighbor_count(const View& view) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < view.degree(); ++i)
    if (view.neighbor_state(i).hset == 0) ++count;
  return count;
}

/// One partition step for an embedded state machine: returns the H-set
/// index (== round) if the vertex joins this round, 0 otherwise.
template <class View>
std::int32_t partition_try_join(std::size_t partition_round,
                                const View& view,
                                std::size_t threshold) {
  if (active_neighbor_count(view) <= threshold)
    return static_cast<std::int32_t>(partition_round);
  return 0;
}

struct RecolorScratch;  // thread_scratch owner tag

/// Wait-for-parents recolor pick (the last stage of Procedure
/// Arb-Color, and of Sections 7.4/7.7 per H-set range). Among the
/// neighbors whose H-set `in_scope` accepts, v's parents are those in a
/// later H-set or in v's own H-set with a larger auxiliary color — at
/// most A = `a_bound` of them by the H-partition property. Returns -1
/// while some parent has not picked yet, else the smallest color of
/// {0..A} no parent holds. State carries `hset`, `aux` and `pick`.
template <class State, class InScope>
std::int32_t recolor_pick(const RoundView<State>& view, std::size_t a_bound,
                          InScope in_scope) {
  const State& self = view.self();
  std::vector<char>& taken = thread_scratch<RecolorScratch, char>();
  taken.assign(a_bound + 1, 0);
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const State& nbr = view.neighbor_state(i);
    if (!in_scope(nbr.hset)) continue;
    const bool parent = nbr.hset > self.hset ||
                        (nbr.hset == self.hset && nbr.aux > self.aux);
    if (!parent) continue;
    if (nbr.pick < 0) return -1;  // wait for every parent
    taken[nbr.pick] = 1;
  }
  std::int32_t pick = 0;
  while (pick <= static_cast<std::int32_t>(a_bound) && taken[pick]) ++pick;
  VALOCAL_ENSURE(pick <= static_cast<std::int32_t>(a_bound),
                 "recoloring palette exhausted: H-partition bound broken");
  return pick;
}

/// Standalone Procedure Partition as a LOCAL algorithm: a vertex
/// terminates in the round it joins its H-set.
class PartitionAlgo {
 public:
  struct State : PartitionState {};
  using Output = std::int32_t;  // H-set index, 1-based

  explicit PartitionAlgo(PartitionParams params) : params_(params) {
    params_.check();
  }

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    const std::int32_t joined =
        partition_try_join(round, view, params_.threshold());
    if (joined == 0) return false;
    next.hset = joined;
    return true;
  }

  Output output(Vertex, const State& s) const { return s.hset; }

  /// Wake hint (WakeHinted): necessarily trivial — the join decision
  /// reads each round's fresh active-neighbor snapshot, so no round is
  /// a skippable no-op for a still-active vertex.
  std::size_t next_wake(Vertex, std::size_t round, const State&) const {
    return round + 1;
  }

  static constexpr bool uses_rng = false;

  const PartitionParams& params() const { return params_; }

  // Trace phases (trace::PhaseTraced): the whole run is one phase, but
  // announcing it lets run records carry a named per-round breakdown.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t, const State&) const {
    return 0;
  }

 private:
  static constexpr const char* kTracePhases[] = {"partition"};

  PartitionParams params_;
};

/// Convenience wrapper: runs Procedure Partition and returns the H-set
/// assignment together with the execution metrics.
struct HPartitionResult {
  std::vector<std::int32_t> hset;  // 1-based H-set index per vertex
  std::size_t num_sets = 0;
  std::size_t threshold = 0;  // the bound A
  Metrics metrics;
};

HPartitionResult compute_h_partition(const Graph& g,
                                     PartitionParams params);

}  // namespace valocal
