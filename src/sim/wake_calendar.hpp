// Calendar queue for the wake-scheduled round engine.
//
// run_local's wake scheduling (see network.hpp) parks a vertex until an
// absolute round chosen by the algorithm's next_wake() hint. The engine
// pops exactly one bucket per round, rounds strictly increasing by one,
// so the natural structure is a calendar queue: a dense array of
// buckets indexed by wake round, with a moving head. Both operations
// are O(1) amortized plus the merge of the popped bucket:
//
//   schedule(v, w)  — append v to bucket w (w is an absolute round
//                     strictly greater than the round being popped);
//   take(r)         — pop bucket r, sorted ascending, so the engine can
//                     std::merge it into the (ascending) active list.
//
// Buckets receive vertices from many different rounds (whoever decided
// to sleep until w), but within one scheduling round the engine appends
// in ascending vertex order (chunk-order barrier application), so a
// bucket is a concatenation of a few ascending runs — one per
// scheduling round that targeted it. schedule() records the run
// boundaries as they form (an append smaller than its predecessor
// starts a run); take() restores the canonical ascending order the
// determinism contract requires with successive std::inplace_merge over
// those presorted runs instead of a blind is_sorted scan + std::sort.
// The common single-run bucket pops with no comparison work at all.
// A popped bucket's storage is released as it is taken and its header
// compacted away periodically, so memory is O(sleeping + horizon of the
// farthest pending wake), not O(total rounds).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "util/assertx.hpp"

namespace valocal {

class WakeCalendar {
 public:
  /// Prepare for a run whose first round is `first_round` (run_local
  /// passes 1). Keeps bucket capacity across runs — the engine holds
  /// the calendar in its reusable scratch workspace.
  void reset(std::size_t first_round = 1) {
    for (auto& b : buckets_) b.clear();
    for (auto& r : run_starts_) r.clear();
    head_ = 0;
    next_round_ = first_round;
    sleeping_ = 0;
  }

  /// Number of vertices currently parked (scheduled, not yet taken).
  std::size_t sleeping() const { return sleeping_; }

  /// Park `v` until round `wake_round`. Must be a future round:
  /// strictly greater than the last round handed to take().
  void schedule(Vertex v, std::size_t wake_round) {
    VALOCAL_DCHECK(wake_round >= next_round_,
                   "wake round already popped — next_wake hint must "
                   "name a strictly future round");
    const std::size_t idx = head_ + (wake_round - next_round_);
    if (idx >= buckets_.size()) {
      buckets_.resize(idx + 1);
      run_starts_.resize(idx + 1);
    }
    auto& bucket = buckets_[idx];
    // A smaller-than-predecessor append ends the current ascending run;
    // remember where the new one starts so take() can merge runs
    // instead of sorting.
    if (!bucket.empty() && v < bucket.back())
      run_starts_[idx].push_back(bucket.size());
    bucket.push_back(v);
    ++sleeping_;
  }

  /// Pop the bucket for `round` (which must be the next un-popped
  /// round) and return its vertices sorted ascending. The reference is
  /// valid until the next take(); an empty bucket returns an empty
  /// vector.
  std::vector<Vertex>& take([[maybe_unused]] std::size_t round) {
    VALOCAL_DCHECK(round == next_round_,
                   "calendar rounds must be taken consecutively");
    ++next_round_;
    taken_.clear();
    if (head_ < buckets_.size()) {
      auto& runs = run_starts_[head_];
      if (!runs.empty()) {
        // Fold the ascending runs together front to back: after the
        // i-th merge the prefix up to the next boundary is sorted.
        auto& bucket = buckets_[head_];
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const auto mid =
              bucket.begin() + static_cast<std::ptrdiff_t>(runs[i]);
          const auto last =
              bucket.begin() +
              static_cast<std::ptrdiff_t>(i + 1 < runs.size()
                                              ? runs[i + 1]
                                              : bucket.size());
          std::inplace_merge(bucket.begin(), mid, last);
        }
        runs.clear();
      }
      taken_.swap(buckets_[head_]);
      // The swap left the previous round's buffer in the popped slot;
      // free it now instead of at compact(), or a run that parks whole
      // vertex sets pins dozens of bucket-sized buffers at a time.
      buckets_[head_] = std::vector<Vertex>();
      ++head_;
      compact();
    }
    sleeping_ -= taken_.size();
    VALOCAL_DCHECK(std::is_sorted(taken_.begin(), taken_.end()),
                   "popped bucket must be ascending");
    return taken_;
  }

  /// Visits every parked vertex (any order). The engine uses this to
  /// keep trace counters byte-identical to the unhinted engine:
  /// sleepers are still "active" in the LOCAL model and must be
  /// charged each round even though no step runs. O(sleeping).
  template <class Fn>
  void for_each_sleeping(Fn&& fn) const {
    for (std::size_t i = head_; i < buckets_.size(); ++i)
      for (const Vertex v : buckets_[i]) fn(v);
  }

 private:
  /// Drop the popped prefix once it dominates the array, so a long run
  /// with a short wake horizon stays at O(horizon) bucket headers.
  void compact() {
    if (head_ >= 64 && head_ * 2 >= buckets_.size()) {
      buckets_.erase(buckets_.begin(),
                     buckets_.begin() + static_cast<std::ptrdiff_t>(head_));
      run_starts_.erase(
          run_starts_.begin(),
          run_starts_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<std::vector<Vertex>> buckets_;  // buckets_[head_] = next_round_
  // Parallel to buckets_: offsets where a new ascending run begins
  // (offset 0 is implicit). Empty for the common single-run bucket.
  std::vector<std::vector<std::size_t>> run_starts_;
  std::vector<Vertex> taken_;
  std::size_t head_ = 0;
  std::size_t next_round_ = 1;
  std::size_t sleeping_ = 0;
};

}  // namespace valocal
