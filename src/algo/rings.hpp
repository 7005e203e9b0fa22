// The ring results of Feuilloley [12] that frame the paper (Sections
// 2-3): the paper's question is whether the vertex-averaged measure can
// beat the worst case for symmetry breaking in GENERAL graphs, given
// that on rings [12] proved
//
//   * leader election:  vertex-averaged O(log n)  vs  worst case
//     Theta(n) — an exponential gap (positive result); and
//   * 3-coloring:       vertex-averaged = worst case = Theta(log* n)
//     (negative result; also the Omega(log* n) lower bound quoted in
//     Section 10).
//
// Both are implemented here on the LOCAL engine:
//
// LeaderElectionAlgo — candidates maintain self-stabilizing
// nearest-candidate pointers in both ring directions (one hop of
// propagation per round, O(1) state via reciprocal ports); a candidate
// resigns — COMMITTING its "non-leader" output under [12]'s
// output-commit semantics while continuing to relay — as soon as it
// learns of a smaller live candidate; the unique survivor detects that
// its pointer chain wrapped around to itself and becomes leader. A
// final "done" wave lets everyone terminate (those rounds are not
// charged: r(v) froze at commit time).
//
// RingColoring3Algo — Cole-Vishkin iterated bit reduction towards the
// successor (the larger-ID-neighbor orientation convention), down to 6
// colors in O(log* n) rounds, then three shift-free rounds 6 -> 3. All
// vertices terminate together: the vertex-averaged complexity EQUALS
// the worst case, the paper's motivating negative example.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "algo/coloring_result.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "util/assertx.hpp"

namespace valocal {

class LeaderElectionAlgo {
 public:
  struct State {
    bool candidate = true;
    bool done = false;  // leader-found wave
    std::int8_t output = 0;  // 1 leader, -1 non-leader, 0 undecided
    // Per own port d: nearest candidate in that direction (excluding
    // self), as currently known; refreshed from scratch every round.
    Vertex near_id[2] = {kInvalidVertex, kInvalidVertex};
    std::uint32_t near_dist[2] = {0, 0};
  };
  using Output = std::int8_t;

  void init(Vertex, const Graph& g, State&) const;

  StepResult step(Vertex v, std::size_t round,
                  const RoundView<State>& view, State& next,
                  Xoshiro256&) const;

  Output output(Vertex, const State& s) const { return s.output; }

  // Deliberately NOT WakeHinted: resigned candidates are pure relays
  // yet refresh their nearest-candidate pointers every round, so no
  // step is ever a skippable no-op.
  static constexpr bool uses_rng = false;
};

struct LeaderElectionResult {
  Vertex leader = kInvalidVertex;
  Metrics metrics;  // r(v) = commit round ([12]'s measure)
};

LeaderElectionResult compute_ring_leader_election(const Graph& ring);

class RingColoring3Algo {
 public:
  /// Published state is the color word alone: the terminal color IS
  /// `color` at commit time (the engine snapshots outputs at the
  /// commit round), so a separate final_color member would be dead
  /// weight copied every round.
  struct State {
    std::uint64_t color = 0;
  };
  using Output = int;

  explicit RingColoring3Algo(std::size_t num_vertices);

  void init(Vertex v, const Graph&, State& s) const { s.color = v; }

  /// Forced inline: the step is a handful of bit operations, and an
  /// out-of-line call per vertex would dominate the engine fixtures
  /// this algorithm exists to keep honest.
  [[gnu::always_inline]] inline bool step(Vertex v, std::size_t round,
                                          const RoundView<State>& view,
                                          State& next,
                                          Xoshiro256&) const {
    const auto& self = view.self();

    // Oriented-ring convention (as in [12] / Cole-Vishkin): the
    // successor of v is the neighbor with id (v+1) mod n. On the
    // canonical ring one neighbor is v+1, except at the wrap vertex
    // n-1 whose successor is its smaller neighbor 0.
    const Vertex n0 = view.neighbor(0), n1 = view.neighbor(1);
    const Vertex succ = (n0 == v + 1 || n1 == v + 1)
                            ? (n0 == v + 1 ? n0 : n1)
                            : std::min(n0, n1);

    if (round <= cv_rounds_) {
      const std::uint64_t mine = self.color;
      const std::uint64_t theirs = view.state_of(succ).color;
      VALOCAL_ENSURE(mine != theirs, "oriented ring coloring broke");
      const unsigned k = static_cast<unsigned>(
          std::countr_zero(mine ^ theirs));
      next.color = 2 * k + ((mine >> k) & 1);
      return false;
    }
    // Shift-free reduction 6 -> 3: rounds cv+1, cv+2, cv+3 retire
    // colors 5, 4, 3. Same-colored vertices are never adjacent, so the
    // greedy pick is race-free.
    const std::size_t slot = round - cv_rounds_;  // 1..3
    const std::uint64_t retire = 6 - slot;        // 5, 4, 3
    if (self.color == retire) {
      const std::uint64_t c0 = view.neighbor_state(0).color;
      const std::uint64_t c1 = view.neighbor_state(1).color;
      std::uint64_t pick = 0;
      while (pick == c0 || pick == c1) ++pick;
      VALOCAL_ENSURE(pick <= 2, "3-coloring pick escaped the palette");
      next.color = pick;
    }
    return slot == 3;
  }

  /// Read at the commit round (slot 3), where color <= 2 is
  /// guaranteed by the step contract above.
  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.color);
  }

  /// Wake hint (WakeHinted): after Cole-Vishkin settles, the 6 -> 3
  /// slots retire colors 5, 4, 3 in fixed rounds — a vertex whose
  /// color is not scheduled for retirement idles until its slot (or
  /// the joint termination round).
  std::size_t next_wake(Vertex, std::size_t round, const State& s) const {
    if (round < cv_rounds_) return round + 1;  // bit reduction each round
    // Slots cv+1, cv+2, cv+3 retire colors 5, 4, 3; a vertex acts only
    // in its own retirement slot and in the joint termination slot
    // cv+3.
    const std::size_t wake =
        cv_rounds_ + (s.color >= 3 && s.color <= 5 ? 6 - s.color : 3);
    return std::max(wake, round + 1);
  }

  static constexpr bool uses_rng = false;

  std::size_t cv_rounds() const { return cv_rounds_; }

 private:
  std::size_t cv_rounds_ = 0;  // bit-reduction rounds to reach <= 6
};

ColoringResult compute_ring_3coloring(const Graph& ring);

}  // namespace valocal
