#include "algo/rand_delta_plus1.hpp"

#include <algorithm>
#include <vector>

#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

bool RandDeltaPlusOneAlgo::step(Vertex, std::size_t round,
                                const RoundView<State>& view, State& next,
                                Xoshiro256& rng) const {
  const auto& self = view.self();

  if (round % 2 == 1) {
    // Draw phase: coin flip, then a uniform color from the palette
    // minus the neighbors' final colors.
    next.proposal = -1;
    if (!rng.coin()) return false;
    // Mark the colors the neighbors hold, counting the free ones; then
    // walk to the below(num_free)-th free color.
    std::vector<char>& taken = thread_scratch<RandDeltaPlusOneAlgo, char>();
    taken.assign(max_degree_ + 1, 0);
    std::size_t num_free = max_degree_ + 1;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const std::int32_t c = view.neighbor_state(i).final_color;
      if (c >= 0 && !taken[c]) {
        taken[c] = 1;
        --num_free;
      }
    }
    VALOCAL_ENSURE(num_free > 0, "palette exhausted: degree bound broken");
    std::uint64_t skip = rng.below(num_free);
    std::int32_t c = 0;
    while (taken[c] || skip-- > 0) ++c;
    next.proposal = c;
    return false;
  }

  // Resolve phase.
  if (self.proposal < 0) return false;
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& nbr = view.neighbor_state(i);
    if (nbr.proposal == self.proposal || nbr.final_color == self.proposal) {
      next.proposal = -1;
      return false;
    }
  }
  next.final_color = self.proposal;
  next.proposal = -1;
  return true;
}

ColoringResult compute_rand_delta_plus1(const Graph& g,
                                        std::uint64_t seed) {
  return run_coloring(g, RandDeltaPlusOneAlgo(g.max_degree()), {.seed = seed});
}


VALOCAL_ALGO_SPEC(rand_delta_plus1) {
  using namespace registry;
  AlgoSpec s = spec_base("rand_delta_plus1", "rand_delta_plus1",
                         Problem::kVertexColoring,
                         /*deterministic=*/false, {Param::kSeed},
                         {{Measure::kVertexAveraged, "O(1) w.h.p."},
                          {Measure::kWorstCase, "O(log n) w.h.p."}},
                         "Thm 9.1 / T1.8");
  s.rows = {{.section = BenchSection::kTable1Rand,
             .order = 0,
             .row = "T1.8 Delta+1 rand",
             .algo_label = "rand_delta_plus1"},
            {.section = BenchSection::kRandTails,
             .order = 0,
             .row = "rand_delta_plus1 (9.1)",
             .check = "9.1 proper",
             .seed_base = 1000}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "rand_delta_plus1",
                            compute_rand_delta_plus1(g, p.seed));
  };
  return s;
}

}  // namespace valocal
