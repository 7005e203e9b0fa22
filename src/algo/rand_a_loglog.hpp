// Randomized O(a log log n)-vertex-coloring with vertex-averaged
// complexity O(1) with high probability (Section 9.3, Theorem 9.2).
//
// Phase 1 (partition rounds 1..t, t = floor(2 log log n)): Procedure
// Partition runs; as soon as a vertex joins H_i (i <= t) it starts
// Rand-Delta-Plus1 trials against its SAME-H-SET neighbors over the
// palette {0..A}, finalizing the pair <c, i> — each H-set has its own
// palette copy, hence the O(a log log n) total colors.
//
// Phase 2 (H-sets t+1..ell share ONE extra palette copy): the partition
// keeps running; a phase-2 vertex starts its trials only once every
// neighbor in a LATER H-set (or not yet joined) has finalized, and its
// draws avoid those neighbors' finals — the paper's reverse-sequential
// sweep realized as pure dataflow. By the H-partition property at most
// A colors are ever forbidden, so the A+1 palette always has a free
// color. Only an O(n / log^2 n) fraction of vertices reaches phase 2,
// which pays O(log^2 n) rounds w.h.p.; the vertex-averaged complexity
// stays O(1) w.h.p.
//
// Trials use the global 2-round draw/resolve cadence so same-set
// proposals are always mutually visible.
#pragma once

#include <cmath>

#include "algo/result.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace valocal {

class RandALogLogAlgo {
 public:
  struct State : PartitionState {
    std::int32_t proposal = -1;   // raw color in [0, A]
    std::int32_t final_raw = -1;  // raw color in [0, A]
    std::int64_t final_color = -1;
  };
  using Output = int;

  RandALogLogAlgo(std::size_t num_vertices, PartitionParams params);

  void init(Vertex, const Graph&, State&) const {}

  bool step(Vertex v, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256& rng) const;

  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.final_color);
  }

  /// (t + 1) palette copies of size A+1: O(a log log n).
  std::size_t palette_bound() const {
    return (t1_ + 1) * (params_.threshold() + 1);
  }
  std::size_t phase1_sets() const { return t1_; }

 private:
  bool phase1(std::int32_t hset) const {
    return hset >= 1 && static_cast<std::size_t>(hset) <= t1_;
  }

  PartitionParams params_;
  std::size_t t1_ = 0;
};

ColoringResult compute_rand_a_loglog(const Graph& g,
                                     PartitionParams params,
                                     std::uint64_t seed = 0x5eed);

}  // namespace valocal
