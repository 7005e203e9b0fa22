#include "algo/bgko22.hpp"

#include <span>

#include "util/scratch.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

bool BgkoMisAlgo::step(Vertex v, std::size_t round,
                       const RoundView<State>& view, State& next,
                       Xoshiro256& rng) const {
  const auto& self = view.self();

  if (round % 2 == 1) {
    // Mark phase: mark w.p. 1/(2(d(v)+1)). The +1 keeps the draw
    // well-defined for isolated vertices and matches the classical
    // "lazy" marking rate.
    const std::uint64_t denom =
        2ull * (static_cast<std::uint64_t>(self.degree) + 1ull);
    next.marked = rng() % denom == 0;
    return false;
  }

  // Resolve phase. An MIS neighbor dominates immediately.
  for (std::size_t i = 0; i < view.degree(); ++i)
    if (view.neighbor_state(i).status == 1) {
      next.status = -1;
      next.marked = false;
      return true;
    }
  // A marked vertex joins unless a marked active neighbor beats it in
  // the (degree, id) order; with every neighbor already decided the
  // vertex joins unconditionally (all of them must be dominated, or
  // the loop above would have fired). Once an active neighbor has been
  // seen and the vertex is not the best, it stays undecided whatever
  // the rest of the list holds, so the scan stops there: an unmarked
  // vertex stops at its first active neighbor.
  bool any_active = false;
  bool best = self.marked;
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& nbr = view.neighbor_state(i);
    if (nbr.status != 0) continue;
    any_active = true;
    if (nbr.marked) {
      const Vertex u = view.neighbor(i);
      best = best && (nbr.degree < self.degree ||
                      (nbr.degree == self.degree && u < v));
    }
    if (!best) break;
  }
  if (!any_active || best) {
    next.status = 1;
    next.marked = false;
    return true;
  }
  next.marked = false;
  return false;
}

bool BgkoMatchingAlgo::step(Vertex v, std::size_t round,
                            const RoundView<State>& view, State& next,
                            Xoshiro256& rng) const {
  const auto& self = view.self();

  if (round % 2 == 1) {
    // Propose phase: pick a uniformly random still-available neighbor;
    // with none left, terminate unmatched (every neighbor is already
    // matched or retired, so no edge at v can ever be added).
    // Branch-free gather: every neighbor id is written, and the count
    // advances only past the available ones. The slots are written
    // before they are read, so they are neither cleared nor filled.
    const std::span<std::uint32_t> avail =
        thread_scratch_slots<BgkoMatchingAlgo, std::uint32_t>(
            view.degree());
    std::size_t k = 0;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      avail[k] = view.neighbor(i);
      k += view.neighbor_state(i).status == 0;
    }
    if (k == 0) {
      next.status = -1;
      next.proposal = kNoProposal;
      return true;
    }
    next.proposal = avail[rng() % k];
    return false;
  }

  // Resolve phase: a mutual proposal matches both endpoints (both see
  // the symmetry in the same round, so they terminate together and the
  // matching stays consistent). The proposal stays as the partner.
  if (self.proposal != kNoProposal &&
      view.state_of(self.proposal).proposal == v) {
    next.status = 1;
    return true;
  }
  next.proposal = kNoProposal;
  return false;
}

MisResult compute_bgko_mis(const Graph& g, std::uint64_t seed) {
  return run_mis(g, BgkoMisAlgo{}, "bgko_mis", {.seed = seed});
}

MatchingResult compute_bgko_matching(const Graph& g, std::uint64_t seed) {
  BgkoMatchingAlgo algo;
  auto run = run_local(g, algo, {.seed = seed});

  MatchingResult result;
  result.in_matching.assign(g.num_edges(), false);
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Vertex u = ix.edge_u(e);
    const Vertex w = ix.edge_v(e);
    result.in_matching[e] =
        run.outputs[u] == static_cast<std::int64_t>(w) &&
        run.outputs[w] == static_cast<std::int64_t>(u);
  }
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(bgko_mis) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "bgko_mis", "BGKO'22 MIS (degree marking)", Problem::kMis,
      /*deterministic=*/false, {Param::kSeed},
      {{Measure::kVertexAveraged, "O(Delta), O(1) bnd-deg"},
       {Measure::kEdgeAveraged, "O(Delta), O(1) bnd-deg"},
       {Measure::kWorstCase, "O(Delta log n) w.h.p."}},
      "BGKO'22 arXiv:2208.08213");
  s.rows = {{.section = BenchSection::kCrossPaper,
             .order = 2,
             .row = "MIS",
             .algo_label = "bgko_mis (BGKO'22, rand)",
             .check = "XP MIS bgko"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return mis_outcome(g, "bgko_mis", compute_bgko_mis(g, p.seed));
  };
  return s;
}

VALOCAL_ALGO_SPEC(bgko_matching) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "bgko_matching", "BGKO'22 matching (mutual proposals)",
      Problem::kMatching,
      /*deterministic=*/false, {Param::kSeed},
      {{Measure::kVertexAveraged, "O(Delta^2), O(1) bnd-deg"},
       {Measure::kEdgeAveraged, "O(Delta^2), O(1) bnd-deg"},
       {Measure::kWorstCase, "O(Delta^2 log n) w.h.p."}},
      "BGKO'22 arXiv:2208.08213");
  s.rows = {{.section = BenchSection::kCrossPaper,
             .order = 5,
             .row = "MM",
             .algo_label = "bgko_matching (BGKO'22, rand)",
             .check = "XP MM bgko"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return matching_outcome(g, "bgko_matching",
                            compute_bgko_matching(g, p.seed));
  };
  return s;
}

}  // namespace valocal
