// The frame of the extension framework's edge entries — edge coloring
// (Corollaries 8.6/8.7) and maximal matching (8.8/8.9) — and the pieces
// they share with the run-to-completion baselines.
//
// Iteration i of the Section 6.2 composition, for the fresh H-set H_i,
// is one block of stages (positions within the CompositionSchedule
// block):
//
//   0           partition round;
//   1           flag round — H_i vertices classify their ports
//               (intra-set / outgoing-to-active / settled) and label
//               their <= A outgoing edges with distinct labels;
//   2 .. 1+L    line plan — the (D+1)-plan on the LINE GRAPH of G(H_i),
//               D = 2A-2 (max line degree), so 2A-1 line colors;
//   2A-1 slots  sweep — slot c settles the intra-set edges of line
//               color c (each color class is a matching);
//   2A rounds   cross stage — two sub-rounds per label j: the ACTIVE
//               head decides for its incoming label-j edges from H_i
//               (assign), then the H_i tails read the decision
//               (ingest).
//
// The entries differ only in what the sweep and the cross sub-rounds
// decide. EdgeStages::at() is the one map from an engine round to its
// stage; step(), next_wake() and trace_phase_of() all read it, and a
// stage's number is also its trace phase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/deg_plus_one_plan.hpp"
#include "algo/extension.hpp"
#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "util/assertx.hpp"

namespace valocal {

/// Per-port state every edge entry publishes (port i of v is the edge
/// to v's i-th neighbor).
struct EdgePortState : PartitionState {
  std::vector<std::int64_t> lcolor;    // line-plan transient color
  std::vector<std::int8_t> kind;       // 0 ?, 1 intra, 2 out, 3 settled
  std::vector<std::int8_t> out_label;  // label of out edges, -1 else

  void init_ports(std::size_t degree) {
    lcolor.assign(degree, -1);
    kind.assign(degree, 0);
    out_label.assign(degree, -1);
  }

  /// An intra-set edge of line color c: settled in sweep slot c.
  bool in_slot(std::size_t port, std::size_t c) const {
    return kind[port] == 1 && lcolor[port] == static_cast<std::int64_t>(c);
  }

  /// An outgoing edge carrying cross label j.
  bool out_with_label(std::size_t port, std::size_t j) const {
    return kind[port] == 2 && out_label[port] == static_cast<std::int8_t>(j);
  }
};

/// Line-vertex rule for line_plan_round: the intra-set ports. A
/// closure object rather than a function, so the plan round inlines it.
inline constexpr auto intra_port = [](const EdgePortState& s,
                                      std::size_t port) {
  return s.kind[port] == 1;
};

class EdgeStages {
 public:
  enum Stage : std::size_t { kPartition, kFlag, kLinePlan, kSweep, kCross };

  /// Where an engine round falls.
  struct At {
    std::size_t iter;       // 1-based iteration
    std::size_t pos;        // position within the iteration's block
    Stage stage;
    std::size_t index = 0;  // line-plan round, sweep slot or cross label
    bool assign = false;    // cross stage: assign sub-round, else ingest
  };

  /// Largest threshold() the edge entries support: cross labels are
  /// stored as int8 (EdgePortState::out_label).
  static constexpr std::size_t kMaxThreshold = 120;

  EdgeStages(std::size_t num_vertices, std::size_t num_edges,
             PartitionParams params);

  At at(std::size_t round) const {
    At a{schedule_.iteration(round), schedule_.position(round), kPartition};
    const std::size_t sweep_begin = 2 + plan_->num_rounds();
    if (a.pos == 0) return a;
    if (a.pos == 1) {
      a.stage = kFlag;
    } else if (a.pos < sweep_begin) {
      a.stage = kLinePlan;
      a.index = a.pos - 2;
    } else if (a.pos < cross_begin_) {
      a.stage = kSweep;
      a.index = a.pos - sweep_begin;
    } else {
      a.stage = kCross;
      a.index = (a.pos - cross_begin_) / 2;
      a.assign = (a.pos - cross_begin_) % 2 == 0;
    }
    return a;
  }

  /// The iteration's last round, where H_i vertices terminate.
  bool block_end(const At& a) const { return a.pos == schedule_.sub_rounds; }

  /// Engine round of iteration iter's first assign sub-round.
  std::size_t cross_start(std::size_t iter) const {
    return schedule_.round_of(iter, cross_begin_);
  }

  /// Wake hint (WakeHinted) shared by the edge entries, read from the
  /// state a vertex published after its step in `round`:
  ///   - a still-active vertex (hset == 0) acts only in partition
  ///     rounds and, as a head, in the cross stage's assign phases; the
  ///     flag/plan/sweep stretch of every iteration is a no-op for it
  ///     (the entries' hset == 0 branch writes nothing outside assign
  ///     phases), so it parks until the iteration's first assign
  ///     phase, hops assign phase to assign phase, then parks until the
  ///     next partition round;
  ///   - an H_i member in the line plan parks through the plan's no-op
  ///     rounds: it wakes for the earliest DegPlusOnePlan::next_active
  ///     over its intra-set ports, or for the first sweep slot if no
  ///     port changes color again. Its other ports' steps in that round
  ///     are no-ops, both endpoints of a line vertex compute the same
  ///     hint for it, and the degree-bound check still runs on the
  ///     member's first plan round (the flag round does not park);
  ///   - every other member step is followed by the next round.
  template <class State>
  std::size_t next_wake(std::size_t round, const State& s) const {
    const At a = at(round);
    if (s.hset <= 0) return std::max(idle_wake(round, a), round + 1);
    if (a.stage != kLinePlan) return round + 1;
    // Plan round t sits at block position 2 + t; t = num_rounds() is
    // the first sweep slot.
    std::size_t t = plan_->num_rounds();
    for (std::size_t j = 0; j < s.kind.size() && t > a.index + 1; ++j)
      if (s.kind[j] == 1)
        t = std::min(t, plan_->next_active(
                            a.index, static_cast<std::uint64_t>(s.lcolor[j])));
    return round + (t - a.index);
  }

  /// The bound A: H-partition threshold and number of cross labels.
  std::size_t threshold() const { return params_.threshold(); }
  const DegPlusOnePlan& line_plan() const { return *plan_; }
  const CompositionSchedule& schedule() const { return schedule_; }

  /// Flag round of an H_iter vertex: classify its ports and label the
  /// outgoing ones 0, 1, ...; an intra-set port's line color starts at
  /// its edge id (the line-graph vertex's unique ID).
  template <class State>
  void flag_round(std::int32_t iter, const RoundView<State>& view,
                  State& next) const {
    std::int8_t next_label = 0;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const State& nbr = view.neighbor_state(i);
      if (nbr.hset == iter) {
        next.kind[i] = 1;  // intra-set
        next.lcolor[i] = static_cast<std::int64_t>(view.incident_edges()[i]);
      } else if (nbr.hset == 0) {
        next.kind[i] = 2;  // outgoing towards a later joiner
        next.out_label[i] = next_label++;
      } else {
        next.kind[i] = 3;  // settled in an earlier iteration
      }
    }
    VALOCAL_ENSURE(next_label <= static_cast<std::int8_t>(threshold()),
                   "more out-edges than the H-partition permits");
  }

 private:
  /// Next round a still-active vertex acts in, after round a.
  std::size_t idle_wake(std::size_t round, const At& a) const {
    // Idle until this iteration's first assign phase.
    if (a.stage != kCross) return cross_start(a.iter);
    // Ingest phases: the next assign phase IS round + 1.
    if (!a.assign) return round + 1;
    // Assign phase for label j: the next head duty is label j+1's
    // assign phase two rounds on, or the next partition round once the
    // labels are exhausted.
    return a.index + 1 < threshold() ? round + 2
                                     : schedule_.round_of(a.iter + 1, 0);
  }

  PartitionParams params_;
  std::shared_ptr<const DegPlusOnePlan> plan_;  // on the line graph
  CompositionSchedule schedule_;
  std::size_t cross_begin_;  // block position of the cross stage
};

/// Smallest color used at neither endpoint of an edge, given the two
/// endpoints' per-port colors (-1 = none). At most |a| + |b| colors are
/// taken, so with degrees <= Delta the pick stays below 2 Delta - 1.
std::int32_t smallest_free_color(std::span<const std::int32_t> a,
                                 std::span<const std::int32_t> b);

}  // namespace valocal
