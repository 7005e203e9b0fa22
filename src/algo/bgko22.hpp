// The BGKO'22 comparison entries (Balliu–Ghaffari–Kuhn–Olivetti,
// "Node and Edge Averaged Complexities of Local Graph Problems",
// arXiv:2208.08213): two randomized algorithms whose *averaged*
// complexity on bounded-degree graphs is a constant even though their
// worst case pays a log n tail.
//
//  - BgkoMisAlgo: Luby's degree-marking MIS variant. Each 2-round
//    trial an undecided vertex marks itself w.p. 1/(2(d(v)+1)) and
//    joins when no marked competitor beats it (degree, then id). On a
//    graph with max degree Delta every vertex retires w.p. >= c/Delta
//    per trial, so r(v) is geometric with mean O(Delta): node-averaged
//    O(1) for bounded degree, while the last vertex still needs
//    Theta(log n) trials w.h.p.
//  - BgkoMatchingAlgo: mutual random proposals. Each 2-round trial an
//    unmatched vertex proposes to a uniformly random still-available
//    neighbor; a mutual proposal matches both endpoints, and a vertex
//    with no available neighbors terminates unmatched. An available
//    edge becomes matched w.p. >= 1/(d(u)d(v)), giving expected
//    r(v) = O(Delta^2) — and because an edge's cost is
//    max(r(u), r(v)), the *edge-averaged* complexity is O(1) on
//    bounded-degree graphs as well.
//
// Both run through run_local, so they inherit the engine's parking /
// thread determinism contract and fill the full measure
// summary (sim/metrics.hpp) like every other catalog entry.
#pragma once

#include <cstdint>

#include "algo/result.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class BgkoMisAlgo {
 public:
  struct State {
    std::uint32_t degree = 0;  // static d(v), published for tiebreaks
    bool marked = false;
    std::int8_t status = 0;  // 0 undecided, 1 in MIS, -1 dominated
  };
  using Output = std::int8_t;

  void init(Vertex v, const Graph& g, State& s) const {
    s.degree = static_cast<std::uint32_t>(g.degree(v));
  }

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const;

  Output output(Vertex, const State& s) const { return s.status; }
};

class BgkoMatchingAlgo {
 public:
  static constexpr std::uint32_t kNoProposal = 0xffffffffu;

  /// `proposal` doubles as the partner: a vertex that matches keeps
  /// the proposal that matched and terminates. No vertex can mistake it
  /// for a live offer, because proposals go only to neighbors that were
  /// undecided when the trial began, and matches happen only in resolve
  /// rounds.
  struct State {
    std::uint32_t proposal = kNoProposal;  // target vertex id
    std::int8_t status = 0;  // 0 undecided, 1 matched, -1 unmatched
  };
  static_assert(sizeof(State) == 8);
  using Output = std::int64_t;  // partner id, or -1 if unmatched

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const;

  Output output(Vertex, const State& s) const {
    return s.status == 1 ? static_cast<Output>(s.proposal) : -1;
  }
};

MisResult compute_bgko_mis(const Graph& g, std::uint64_t seed = 0x5eed);

MatchingResult compute_bgko_matching(const Graph& g,
                                     std::uint64_t seed = 0x5eed);

}  // namespace valocal
