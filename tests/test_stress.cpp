// Deterministic cross-algorithm stress battery: every solver of the
// library on a diverse pool of random and structured instances, every
// output certified by both the centralized validators and the
// distributed one-round local checkers, and the universal sanity
// invariants (VA <= WC, r(v) >= 1, decay monotonicity) asserted on the
// metrics of every run.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "algo/rand_a_loglog.hpp"
#include "algo/defective_coloring.hpp"
#include "algo/general_partition.hpp"
#include "algo/one_plus_eta.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "algo/rings.hpp"
#include "baseline/be08_arb_color.hpp"
#include "baseline/luby_mis.hpp"
#include "baseline/wc_delta_plus1.hpp"
#include "baseline/wc_edge_mm.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "validate/local_checkers.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

struct Instance {
  std::string name;
  Graph graph;
  std::size_t a;
};

std::vector<Instance> instance_pool(std::uint64_t seed) {
  std::vector<Instance> pool;
  pool.push_back({"forest_a2", gen::forest_union(700, 2, seed), 2});
  pool.push_back({"forest_a5", gen::forest_union(500, 5, seed + 1), 5});
  pool.push_back(
      {"er_sparse", gen::erdos_renyi(600, 3.0, seed + 2),
       arboricity_upper_bound(gen::erdos_renyi(600, 3.0, seed + 2))});
  pool.push_back({"ba", gen::barabasi_albert(500, 2, seed + 3), 2});
  pool.push_back({"grid", gen::grid(22, 23), 3});
  pool.push_back({"tree", gen::random_tree(800, seed + 4), 1});
  pool.push_back({"stars", gen::star_union(600, 6), 2});
  pool.push_back({"caterpillar", gen::caterpillar(40, 6), 1});
  pool.push_back({"hypercube", gen::hypercube(8), 8});
  pool.push_back({"ring_odd", gen::ring(333), 2});
  return pool;
}

void check_metrics_sanity(const Metrics& m, std::size_t n,
                          const std::string& where) {
  ASSERT_EQ(m.rounds.size(), n) << where;
  for (auto r : m.rounds) EXPECT_GE(r, 1u) << where;
  EXPECT_LE(m.vertex_averaged(),
            static_cast<double>(m.worst_case()) + 1e-9)
      << where;
  // Active counts never increase (vertices only terminate).
  for (std::size_t i = 1; i < m.active_per_round.size(); ++i)
    EXPECT_LE(m.active_per_round[i], m.active_per_round[i - 1]) << where;
  if (!m.active_per_round.empty()) {
    EXPECT_EQ(m.active_per_round[0], n) << where;
  }
}

class StressBattery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressBattery, AllSolversOnAllInstances) {
  const std::uint64_t seed = GetParam();
  for (const auto& inst : instance_pool(seed)) {
    const PartitionParams params{.arboricity = inst.a, .epsilon = 1.0};
    SCOPED_TRACE(inst.name);
    const Graph& g = inst.graph;
    const std::size_t n = g.num_vertices();

    for (const auto& [tag, result] :
         {std::pair{"a2logn", compute_coloring_a2logn(g, params)},
          std::pair{"a2", compute_coloring_a2(g, params)},
          std::pair{"oa", compute_coloring_oa(g, params)},
          std::pair{"ka2", compute_coloring_ka2(g, params, 2)},
          std::pair{"ka", compute_coloring_ka(g, params, 2)},
          std::pair{"delta_plus1", compute_delta_plus1(g, params)},
          std::pair{"rand_dp1", compute_rand_delta_plus1(g, seed)},
          std::pair{"rand_all", compute_rand_a_loglog(g, params, seed)}}) {
      SCOPED_TRACE(tag);
      EXPECT_TRUE(is_proper_coloring(g, result.color));
      EXPECT_TRUE(locally_check_coloring(g, result.color,
                                         static_cast<std::size_t>(-1))
                      .all_accept);
      EXPECT_LE(result.num_colors, result.palette_bound);
      check_metrics_sanity(result.metrics, n, tag);
    }

    const auto mis = compute_mis(g, params);
    EXPECT_TRUE(is_mis(g, mis.in_set));
    EXPECT_TRUE(locally_check_mis(g, mis.in_set).all_accept);
    check_metrics_sanity(mis.metrics, n, "mis");

    const auto ec = compute_edge_coloring(g, params);
    EXPECT_TRUE(is_proper_edge_coloring(g, ec.color));
    EXPECT_TRUE(
        locally_check_edge_coloring(g, ec.color, ec.palette_bound)
            .all_accept);
    check_metrics_sanity(ec.metrics, n, "ec");

    const auto mm = compute_matching(g, params);
    EXPECT_TRUE(is_maximal_matching(g, mm.in_matching));
    EXPECT_TRUE(locally_check_matching(g, mm.in_matching).all_accept);
    check_metrics_sanity(mm.metrics, n, "mm");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressBattery,
                         ::testing::Values(11, 22, 33));

// Second battery: the heavier / less common paths — baselines,
// unknown-arboricity partitioning, deep segmentation, the Section 7.8
// recursion — on a reduced instance set.
TEST(StressBatteryHeavy, BaselinesAndRecursives) {
  for (std::uint64_t seed : {5ULL, 6ULL}) {
    const Graph g = gen::forest_union(400, 4, seed);
    const PartitionParams params{.arboricity = 4};
    SCOPED_TRACE(seed);

    const auto gp = compute_general_partition(g);
    EXPECT_TRUE(is_h_partition(g, gp.hset, gp.effective_threshold));

    const auto be = compute_be08_arb_color(g, params);
    EXPECT_TRUE(is_proper_coloring(g, be.color));

    const auto wc = compute_wc_delta_plus1(g);
    EXPECT_TRUE(is_proper_coloring(g, wc.color));

    const auto wce = compute_wc_edge_coloring(g);
    EXPECT_TRUE(is_proper_edge_coloring(g, wce.color));

    const auto wcm = compute_wc_matching(g);
    EXPECT_TRUE(is_maximal_matching(g, wcm.in_matching));

    const auto deep = compute_coloring_ka2(g, params, 0);
    EXPECT_TRUE(is_proper_coloring(g, deep.color));

    const auto luby = compute_luby_mis(g, seed);
    EXPECT_TRUE(is_mis(g, luby.in_set));

    const auto arbd =
        compute_arbdefective_coloring(g, {.colors = 5});
    EXPECT_LE(coloring_arbdefect_ub(g, arbd.color),
              arbdefective_class_bound(g.max_degree(), 5));
  }
  // The recursion, on a genuinely high-arboricity instance.
  const Graph dense = gen::forest_union(500, 20, 77);
  const auto ope = compute_one_plus_eta(dense, {.arboricity = 20});
  EXPECT_TRUE(is_proper_coloring(dense, ope.color));

  // Rings get their own pair of solvers.
  const Graph ring = gen::ring(257);
  EXPECT_EQ(compute_ring_leader_election(ring).leader, 0u);
  EXPECT_TRUE(
      is_proper_coloring(ring, compute_ring_3coloring(ring).color));
}

}  // namespace
}  // namespace valocal
