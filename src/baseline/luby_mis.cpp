#include "baseline/luby_mis.hpp"

#include "registry/spec_util.hpp"

namespace valocal {

bool LubyMisAlgo::step(Vertex v, std::size_t round,
                       const RoundView<State>& view, State& next,
                       Xoshiro256& rng) const {
  const auto& self = view.self();

  if (round % 2 == 1) {
    // Draw phase.
    next.priority = rng();
    next.drawn = true;
    return false;
  }

  // Resolve phase: an MIS neighbor dominates; otherwise a strict local
  // maximum (ties broken by ID) joins.
  for (std::size_t i = 0; i < view.degree(); ++i)
    if (view.neighbor_state(i).status == 1) {
      next.status = -1;
      next.drawn = false;
      return true;
    }
  bool best = self.drawn;
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& nbr = view.neighbor_state(i);
    if (nbr.status != 0 || !nbr.drawn) continue;
    const Vertex u = view.neighbor(i);
    if (nbr.priority > self.priority ||
        (nbr.priority == self.priority && u > v)) {
      best = false;
      break;
    }
  }
  if (best) {
    next.status = 1;
    next.drawn = false;
    return true;
  }
  next.drawn = false;
  return false;
}

MisResult compute_luby_mis(const Graph& g, std::uint64_t seed) {
  return run_mis(g, LubyMisAlgo{}, "luby", {.seed = seed});
}


VALOCAL_ALGO_SPEC(luby) {
  using namespace registry;
  AlgoSpec s = spec_base("luby", "Luby MIS", Problem::kMis,
                         /*deterministic=*/false, {Param::kSeed},
                         {{Measure::kVertexAveraged, "O(log n) w.h.p."},
                          {Measure::kWorstCase, "O(log n) w.h.p."}},
                         "Luby baseline / T2.1");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 1,
             .row = "T2.1 MIS",
             .algo_label = "luby (baseline, rand O(log n))",
             .check = "T2.1 Luby"},
            {.section = BenchSection::kCrossPaper,
             .order = 1,
             .row = "MIS",
             .algo_label = "luby (priority baseline, rand)",
             .check = "XP MIS luby"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return mis_outcome(g, "Luby MIS", compute_luby_mis(g, p.seed));
  };
  return s;
}

}  // namespace valocal
