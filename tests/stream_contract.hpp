// Shared check of the EdgeBlockSource::stream() hand-over contract:
// the callback runs on one thread at a time and sees every pair.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "graph/graph.hpp"

namespace valocal {

/// Streams `src` with `threads` producer threads and fails if two
/// callbacks are ever in flight at once. Each callback lingers briefly
/// so an overlapping hand-over would be observed; the tally is a plain
/// counter, so under TSan a concurrent hand-over is also a reported
/// race. Expects at least two blocks, or the check proves nothing.
inline void expect_serial_stream(const EdgeBlockSource& src,
                                 std::size_t threads) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  std::uint64_t pairs = 0, blocks = 0;
  src.stream(threads, [&](EdgeBlockSource::Block block) {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    pairs += block.size() / 2;
    ++blocks;
    --in_flight;
  });
  EXPECT_LE(peak.load(), 1) << "stream() invoked fn concurrently";
  EXPECT_EQ(pairs, src.num_pairs());
  EXPECT_GE(blocks, 2u);
}

}  // namespace valocal
