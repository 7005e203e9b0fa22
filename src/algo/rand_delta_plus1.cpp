#include "algo/rand_delta_plus1.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "util/assertx.hpp"
#include "util/mathx.hpp"
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
    // Mark the colors the neighbors hold, one bit each in
    // ceil((Delta+1)/64) words; the free colors are the palette minus
    // the marked bits. Walk the words to the one holding the
    // below(num_free)-th free color, then drop that many lower free
    // bits inside it: the same color a walk over the palette picks.
    const std::size_t palette = max_degree_ + 1;
    const std::span<std::uint64_t> taken =
        thread_scratch_slots<RandDeltaPlusOneAlgo, std::uint64_t>(
            (palette + 63) / 64);
    std::fill(taken.begin(), taken.end(), 0);
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const std::int32_t c = view.neighbor_state(i).final_color;
      if (c >= 0) taken[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
    std::size_t num_free = palette;
    for (const std::uint64_t word : taken) num_free -= popcount64(word);
    VALOCAL_ENSURE(num_free > 0, "palette exhausted: degree bound broken");
    std::uint64_t skip = rng.below(num_free);
    std::size_t w = 0;
    // The last word's bits past the palette read as free, but the walk
    // stops inside the palette: skip < num_free counts real colors.
    std::uint64_t free_bits = ~taken[0];
    while (skip >= popcount64(free_bits)) {
      skip -= popcount64(free_bits);
      free_bits = ~taken[++w];
    }
    for (; skip > 0; --skip) free_bits &= free_bits - 1;
    next.proposal = static_cast<std::int32_t>(
        64 * w + static_cast<std::size_t>(std::countr_zero(free_bits)));
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
