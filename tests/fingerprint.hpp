// FNV-1a fingerprint of a run's outputs and r(v), for tests that pin
// an entry's results to the values an earlier implementation produced.
#pragma once

#include <cstdint>
#include <vector>

namespace valocal {

/// FNV-1a over the values of `outputs` then `rounds`, widened to 64
/// bits so the pin does not depend on the Output type's width.
template <class T>
std::uint64_t fingerprint(const std::vector<T>& outputs,
                          const std::vector<std::uint32_t>& rounds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const T o : outputs) mix(static_cast<std::uint64_t>(o));
  for (const std::uint32_t r : rounds) mix(r);
  return h;
}

}  // namespace valocal
