// Integer math used throughout the paper's bounds: floor/ceil logs, the
// iterated logarithm log^(k) n, log* n, and rho(n) from Section 7.5.
#pragma once

#include <cstdint>

namespace valocal {

/// floor(log2(x)) for x >= 1.
int log2_floor(std::uint64_t x);

/// ceil(log2(x)) for x >= 1.
int log2_ceil(std::uint64_t x);

/// The k-fold iterated base-2 logarithm: ilog(0, n) = n,
/// ilog(k, n) = log2_ceil(ilog(k-1, n)), clamped below at 1.
std::uint64_t ilog(int k, std::uint64_t n);

/// log* n: the number of times log2 must be iterated before the value
/// drops to <= 1. log_star(1) == 0, log_star(2) == 1, log_star(16) == 3.
int log_star(std::uint64_t n);

/// rho(n) from Section 7.5: the largest integer k such that
/// log^(k-1) n >= log* n. Segmentation uses k in {2, ..., rho(n)}.
int rho(std::uint64_t n);

/// Generic base-b logarithm, floor, for x >= 1 and b > 1.
int log_floor(double base, std::uint64_t x);

/// Deterministic primality test for 64-bit integers (Miller-Rabin with a
/// fixed witness set that is exact for all 64-bit inputs).
bool is_prime(std::uint64_t n);

/// Smallest prime >= n (n >= 2).
std::uint64_t next_prime(std::uint64_t n);

/// Integer power with overflow guard: returns min(base^exp, cap).
std::uint64_t ipow_capped(std::uint64_t base, unsigned exp,
                          std::uint64_t cap);

/// ceil(x / y) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t x, std::uint64_t y) {
  return (x + y - 1) / y;
}

/// Population count as the SWAR bit-slice sum: std::popcount compiles to
/// a libgcc call on a build without the POPCNT instruction, and the
/// callers (Graph::induced's ranks, rand_delta_plus1's free colors)
/// count once per neighbor or per step.
constexpr std::uint32_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555;
  x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f;
  return static_cast<std::uint32_t>((x * 0x0101010101010101) >> 56);
}

}  // namespace valocal
