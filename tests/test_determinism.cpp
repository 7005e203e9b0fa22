// Bit-reproducibility guarantees: deterministic algorithms yield
// identical outputs AND metrics across repeated runs; randomized ones
// are pure functions of the seed. Guards the engine against future
// iteration-order or staging regressions.
#include <gtest/gtest.h>

#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "algo/one_plus_eta.hpp"
#include "algo/rand_a_loglog.hpp"
#include "baseline/be08_arb_color.hpp"
#include "baseline/wc_edge_mm.hpp"
#include "graph/generators.hpp"

#include "fingerprint.hpp"

namespace valocal {
namespace {

TEST(Determinism, ColoringsAreBitStable) {
  const Graph g = gen::forest_union(600, 3, 223);
  const PartitionParams params{.arboricity = 3};

  const auto a1 = compute_coloring_a2logn(g, params);
  const auto a2 = compute_coloring_a2logn(g, params);
  EXPECT_EQ(a1.color, a2.color);
  EXPECT_EQ(a1.metrics.rounds, a2.metrics.rounds);

  const auto b1 = compute_coloring_a2(g, params);
  const auto b2 = compute_coloring_a2(g, params);
  EXPECT_EQ(b1.color, b2.color);

  const auto c1 = compute_coloring_ka(g, params, 2);
  const auto c2 = compute_coloring_ka(g, params, 2);
  EXPECT_EQ(c1.color, c2.color);

  const auto d1 = compute_one_plus_eta(g, {.arboricity = 3});
  const auto d2 = compute_one_plus_eta(g, {.arboricity = 3});
  EXPECT_EQ(d1.color, d2.color);
  EXPECT_EQ(d1.metrics.rounds, d2.metrics.rounds);
}

TEST(Determinism, EdgeProblemsAreBitStable) {
  const Graph g = gen::forest_union(400, 2, 227);
  const PartitionParams params{.arboricity = 2};

  const auto e1 = compute_edge_coloring(g, params);
  const auto e2 = compute_edge_coloring(g, params);
  EXPECT_EQ(e1.color, e2.color);

  const auto m1 = compute_matching(g, params);
  const auto m2 = compute_matching(g, params);
  EXPECT_EQ(m1.in_matching, m2.in_matching);

  const auto s1 = compute_mis(g, params);
  const auto s2 = compute_mis(g, params);
  EXPECT_EQ(s1.in_set, s2.in_set);
}

TEST(Determinism, RandomizedIsAPureFunctionOfTheSeed) {
  const Graph g = gen::forest_union(400, 2, 229);
  const auto r1 = compute_rand_a_loglog(g, {.arboricity = 2}, 5);
  const auto r2 = compute_rand_a_loglog(g, {.arboricity = 2}, 5);
  const auto r3 = compute_rand_a_loglog(g, {.arboricity = 2}, 6);
  EXPECT_EQ(r1.color, r2.color);
  EXPECT_EQ(r1.metrics.rounds, r2.metrics.rounds);
  EXPECT_NE(r1.color, r3.color);
}

// Outputs and r(v) of the entries built from the shared H-set steps
// (same-set plan round, wait-for-parents recolor, line-plan round,
// edge stage frame, ladder round) and segmentation scheme classes that
// no perfbench golden covers, pinned to the values the per-entry
// copies of those steps and the dedicated a2/oa classes produced.
const PartitionParams kPinParams{.arboricity = 3};
const PartitionParams kTreeParams{.arboricity = 1};

const Graph& pin_forest() {
  static const Graph g = gen::forest_union(1 << 12, 3, 7);
  return g;
}

/// The (A+1)-ary tree: every Partition round peels only the leaves.
const Graph& pin_tree() {
  static const Graph g =
      gen::dary_tree(1 << 12, kTreeParams.threshold() + 1);
  return g;
}

TEST(HsetStepPins, KaOutputsAndRounds) {
  const auto forest = compute_coloring_ka(pin_forest(), kPinParams, 2);
  EXPECT_EQ(fingerprint(forest.color, forest.metrics.rounds),
            0xa063df2aa9e36650ULL);
  const auto tree = compute_coloring_ka(pin_tree(), kTreeParams, 0);
  EXPECT_EQ(fingerprint(tree.color, tree.metrics.rounds),
            0x217d35703e7c1537ULL);
}

TEST(HsetStepPins, A2OutputsAndRounds) {
  const auto forest = compute_coloring_a2(pin_forest(), kPinParams);
  EXPECT_EQ(fingerprint(forest.color, forest.metrics.rounds),
            0xafa662a6ff69970fULL);
  const auto tree = compute_coloring_a2(pin_tree(), kTreeParams);
  EXPECT_EQ(fingerprint(tree.color, tree.metrics.rounds),
            0xa33fc744964f682bULL);
}

TEST(HsetStepPins, OaOutputsAndRounds) {
  const auto forest = compute_coloring_oa(pin_forest(), kPinParams);
  EXPECT_EQ(fingerprint(forest.color, forest.metrics.rounds),
            0xa285dc927e3fbb0cULL);
  const auto tree = compute_coloring_oa(pin_tree(), kTreeParams);
  EXPECT_EQ(fingerprint(tree.color, tree.metrics.rounds),
            0x140dd1e7e4e1a3e7ULL);
}

TEST(HsetStepPins, Be08OutputsAndRounds) {
  const auto forest = compute_be08_arb_color(pin_forest(), kPinParams);
  EXPECT_EQ(fingerprint(forest.color, forest.metrics.rounds),
            0xb60e5c778b284de0ULL);
  const auto tree = compute_be08_arb_color(pin_tree(), kTreeParams);
  EXPECT_EQ(fingerprint(tree.color, tree.metrics.rounds),
            0xd75b1d656bf922e5ULL);
}

TEST(HsetStepPins, WcEdgeOutputsAndRounds) {
  const auto forest = compute_wc_edge_coloring(pin_forest());
  EXPECT_EQ(fingerprint(forest.color, forest.metrics.rounds),
            0x8557ef4f9a9d016fULL);
  const auto tree = compute_wc_edge_coloring(pin_tree());
  EXPECT_EQ(fingerprint(tree.color, tree.metrics.rounds),
            0x6dbe5663e6d8786fULL);
}

TEST(HsetStepPins, WcMatchingOutputsAndRounds) {
  const auto forest = compute_wc_matching(pin_forest());
  EXPECT_EQ(fingerprint(forest.in_matching, forest.metrics.rounds),
            0x057227149cf543a5ULL);
  const auto tree = compute_wc_matching(pin_tree());
  EXPECT_EQ(fingerprint(tree.in_matching, tree.metrics.rounds),
            0xb2bf93e6a02dbd04ULL);
}

TEST(HsetStepPins, EdgeEntriesOnATorus) {
  const Graph g = gen::torus(16, 16);
  const auto ec = compute_edge_coloring(g, kPinParams);
  EXPECT_EQ(fingerprint(ec.color, ec.metrics.rounds),
            0x80df976032374aa2ULL);
  const auto mm = compute_matching(g, kPinParams);
  EXPECT_EQ(fingerprint(mm.in_matching, mm.metrics.rounds),
            0x501cb55813108824ULL);
}

}  // namespace
}  // namespace valocal
