// The generic Section 6.2 composition as a reusable combinator.
//
// Algorithm C of Section 6.2: ell = O(log n) iterations, each being one
// Procedure-Partition round (forming H_i) followed by T_A rounds in
// which ONLY the vertices of the fresh H_i run a caller-supplied
// subroutine on G(H_i). Corollary 6.4: the vertex-averaged complexity
// is O(T_A), independent of the iteration count. The paper's Section 8
// algorithms are hand-specialized instances of this shape; the
// combinator lets users plug in new per-H-set subroutines without
// re-deriving the scheduling.
//
// Subroutine concept:
//
//   struct MySub {
//     struct State { ... };        // per-vertex subroutine state
//     using Output = ...;
//     std::size_t sub_rounds() const;   // T_A: fixed round budget
//     // Round t in [0, sub_rounds()): `self`/`same_set` expose only
//     // H_i-internal information (plus anything the subroutine itself
//     // published on the composite state in earlier rounds).
//     // Returning true terminates the vertex early (before the block
//     // ends); vertices still running at the block's last round
//     // terminate automatically.
//     bool step(Vertex v, std::size_t t, const SubView<State>& view,
//               State& next, Xoshiro256& rng) const;
//     Output output(Vertex v, const State& s) const;
//   };
//
// The subroutine's view gives, for each neighbor, whether it is in the
// same H-set, whether it terminated already, and its subroutine state —
// sufficient for every Section 8 instance and for user extensions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algo/extension.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace valocal {

template <class SubState>
struct ComposedState : PartitionState {
  SubState sub{};
};

/// Neighborhood window restricted to what a per-H-set subroutine may
/// read: same-set membership and the neighbors' subroutine states.
template <class SubState>
class SubView {
 public:
  SubView(const RoundView<ComposedState<SubState>>& view,
          std::int32_t my_hset)
      : view_(&view), my_hset_(my_hset) {}

  std::size_t degree() const { return view_->degree(); }
  Vertex neighbor(std::size_t i) const { return view_->neighbor(i); }
  std::size_t neighbor_port(std::size_t i) const {
    return view_->neighbor_port(i);
  }
  bool same_set(std::size_t i) const {
    return view_->neighbor_state(i).hset == my_hset_;
  }
  /// Neighbors in EARLIER H-sets already carry final outputs.
  bool settled(std::size_t i) const {
    const auto h = view_->neighbor_state(i).hset;
    return h != 0 && h < my_hset_;
  }
  const SubState& neighbor_state(std::size_t i) const {
    return view_->neighbor_state(i).sub;
  }
  const SubState& self() const { return view_->self().sub; }

 private:
  const RoundView<ComposedState<SubState>>* view_;
  std::int32_t my_hset_;
};

template <class Sub>
class HSetComposition {
 public:
  using State = ComposedState<typename Sub::State>;
  using Output = typename Sub::Output;

  HSetComposition(std::size_t num_vertices, PartitionParams params,
                  Sub sub)
      : params_(params),
        sub_(std::move(sub)),
        schedule_(num_vertices, params.epsilon, sub_.sub_rounds()) {
    params_.check();
  }

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const {
    VALOCAL_ENSURE(round <= schedule_.total_rounds(),
                   "composition schedule exhausted with active vertices");
    const auto& self = view.self();
    const std::size_t iter = schedule_.iteration(round);
    const std::size_t pos = schedule_.position(round);

    if (pos == 0) {
      if (self.hset == 0)
        next.hset = partition_try_join(iter, view, params_.threshold());
      return false;
    }
    if (self.hset != static_cast<std::int32_t>(iter)) return false;

    const SubView<typename Sub::State> sub_view(view, self.hset);
    const bool done = sub_.step(v, pos - 1, sub_view, next.sub, rng);
    return done || pos == schedule_.sub_rounds;
  }

  Output output(Vertex v, const State& s) const {
    return sub_.output(v, s.sub);
  }

  /// Wake hint (WakeHinted in sim/network.hpp). A vertex outside the
  /// running H-set no-ops until the block schedule's next
  /// Procedure-Partition round — position 0 of the next iteration —
  /// so the engine may park it there. Vertices inside the running
  /// block (and fresh joiners at position 0) step every round.
  std::size_t next_wake(Vertex, std::size_t round,
                        const State& s) const {
    if (s.hset == static_cast<std::int32_t>(schedule_.iteration(round)))
      return round + 1;
    return round + (schedule_.block() - schedule_.position(round));
  }

  /// The composition itself never draws randomness; only the plugged
  /// subroutine might.
  static constexpr bool uses_rng = algorithm_uses_rng<Sub>;

  const CompositionSchedule& schedule() const { return schedule_; }

  // Trace phases (trace::PhaseTraced): the partition round of each
  // block versus the sub-rounds of the plugged-in subroutine.
  std::span<const char* const> trace_phases() const {
    return kTracePhases;
  }
  std::size_t trace_phase_of(Vertex, std::size_t round,
                             const State&) const {
    return schedule_.position(round) == 0 ? 0 : 1;
  }

 private:
  static constexpr const char* kTracePhases[] = {"partition", "sub"};

  PartitionParams params_;
  Sub sub_;
  CompositionSchedule schedule_;
};

/// Runs the composition end to end.
template <class Sub>
RunResult<HSetComposition<Sub>> run_hset_composition(
    const Graph& g, PartitionParams params, Sub sub,
    std::uint64_t seed = 0x5eed) {
  VALOCAL_TRACE_PHASE("hset_composition");
  HSetComposition<Sub> algo(g.num_vertices(), params, std::move(sub));
  return run_local(g, algo, {.seed = seed});
}

}  // namespace valocal
