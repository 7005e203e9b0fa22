#include "algo/rand_a_loglog.hpp"

#include <algorithm>
#include <vector>

#include "util/assertx.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

RandALogLogAlgo::RandALogLogAlgo(std::size_t num_vertices,
                                 PartitionParams params)
    : params_(params) {
  params_.check();
  if (num_vertices < 4) {
    t1_ = 1;
  } else {
    const double loglog = std::log2(
        std::max(2.0, std::log2(static_cast<double>(num_vertices))));
    t1_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(2.0 * loglog)));
  }
}

bool RandALogLogAlgo::step(Vertex, std::size_t round,
                           const RoundView<State>& view, State& next,
                           Xoshiro256& rng) const {
  const auto& self = view.self();
  const std::size_t a_bound = params_.threshold();

  if (round % 2 == 1) {
    // Odd rounds: a Partition step for the still-active, then the draw
    // phase for joined-but-uncolored vertices.
    next.proposal = -1;
    if (self.hset == 0) {
      const std::size_t partition_round = (round + 1) / 2;
      next.hset =
          partition_try_join(partition_round, view, a_bound);
      return false;
    }
    if (self.final_raw >= 0) return false;  // unreachable: terminated

    const bool p1 = phase1(self.hset);
    if (!p1) {
      // Phase-2 readiness: every later joiner (or not-yet joiner)
      // adjacent to us must already hold a final color.
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == 0) return false;
        if (!phase1(nbr.hset) && nbr.hset > self.hset &&
            nbr.final_raw < 0)
          return false;
      }
    }
    // Forbidden colors: finals of the conflict group (same H-set in
    // phase 1; same-or-later phase-2 H-sets in phase 2).
    std::vector<char> taken(a_bound + 1, 0);
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      if (nbr.final_raw < 0) continue;
      const bool relevant =
          p1 ? nbr.hset == self.hset
             : (!phase1(nbr.hset) && nbr.hset >= self.hset);
      if (relevant) taken[nbr.final_raw] = 1;
    }
    std::vector<std::int32_t> avail;
    avail.reserve(a_bound + 1);
    for (std::size_t c = 0; c <= a_bound; ++c)
      if (!taken[c]) avail.push_back(static_cast<std::int32_t>(c));
    VALOCAL_ENSURE(!avail.empty(),
                   "palette exhausted: H-partition bound broken");
    if (rng.coin()) next.proposal = avail[rng.below(avail.size())];
    return false;
  }

  // Even rounds: resolve.
  if (self.hset == 0 || self.proposal < 0) return false;
  const bool p1 = phase1(self.hset);
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& nbr = view.neighbor_state(i);
    const bool relevant =
        p1 ? nbr.hset == self.hset
           : (!phase1(nbr.hset) && nbr.hset >= self.hset && nbr.hset > 0);
    if (!relevant) continue;
    if (nbr.proposal == self.proposal ||
        nbr.final_raw == self.proposal) {
      next.proposal = -1;
      return false;
    }
  }
  next.final_raw = self.proposal;
  const std::size_t offset =
      p1 ? static_cast<std::size_t>(self.hset - 1) : t1_;
  next.final_color = static_cast<std::int64_t>(
      offset * (a_bound + 1) + static_cast<std::size_t>(self.proposal));
  next.proposal = -1;
  return true;
}

ColoringResult compute_rand_a_loglog(const Graph& g,
                                     PartitionParams params,
                                     std::uint64_t seed) {
  return run_coloring(
      g, RandALogLogAlgo(g.num_vertices(), params), {.seed = seed});
}


VALOCAL_ALGO_SPEC(rand_a_loglog) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "rand_a_loglog", "rand_a_loglog", Problem::kVertexColoring,
      /*deterministic=*/false,
      {Param::kArboricity, Param::kEpsilon, Param::kSeed},
      {{Measure::kVertexAveraged, "O(1) w.h.p."},
       {Measure::kWorstCase, "O(log n) w.h.p."}},
      "Thm 9.2 / T1.9");
  s.rows = {{.section = BenchSection::kTable1Rand,
             .order = 1,
             .row = "T1.9 O(a loglog n) rand",
             .algo_label = "rand_a_loglog"},
            {.section = BenchSection::kRandTails,
             .order = 1,
             .row = "rand_a_loglog (9.2)",
             .check = "9.2 proper",
             .seed_base = 2000}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(
        g, "rand_a_loglog",
        compute_rand_a_loglog(g, p.partition(), p.seed));
  };
  return s;
}

}  // namespace valocal
