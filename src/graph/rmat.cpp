#include "graph/rmat.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace valocal::gen {
namespace {

/// Seeded bijection on [0, 2^scale): multiply-by-odd (invertible mod
/// 2^k) alternated with xorshift-right (invertible for any shift >= 1),
/// masked to the scale bits. Cheap, stateless, and reversible — the
/// standard id-scrambling trick from the Graph500 generator.
struct IdScramble {
  bool enabled = false;
  Vertex mask = 0;
  std::uint32_t shift = 1;
  Vertex mul1 = 1, mul2 = 1;

  IdScramble(std::uint32_t scale, std::uint64_t seed, bool on)
      : enabled(on) {
    mask = static_cast<Vertex>((std::uint64_t{1} << scale) - 1);
    if (!enabled) return;
    shift = scale / 2 + 1;
    std::uint64_t s = seed ^ 0x5851f42d4c957f2dULL;
    mul1 = static_cast<Vertex>(splitmix64(s) | 1);
    mul2 = static_cast<Vertex>(splitmix64(s) | 1);
  }

  Vertex operator()(Vertex x) const {
    if (!enabled) return x;
    x = (x * mul1) & mask;
    x ^= (x >> shift);
    x = (x * mul2) & mask;
    x ^= (x >> shift);
    return x & mask;
  }
};

/// One RMAT pair from its own (seed, index)-derived stream: descend
/// `scale` levels of the 2x2 recursive matrix, picking a quadrant per
/// level with probabilities (a, b, c, d).
inline void rmat_pair(const RmatParams& p, const IdScramble& scramble,
                      std::uint64_t index, Vertex& u, Vertex& v) {
  Xoshiro256 rng =
      vertex_rng(p.seed, index, /*round_salt=*/0x524d4154ULL);  // "RMAT"
  const double ab = p.a + p.b;
  const double abc = ab + p.c;
  Vertex ru = 0, rv = 0;
  for (std::uint32_t level = 0; level < p.scale; ++level) {
    const double r = rng.uniform01();
    const Vertex bu = r >= ab ? 1 : 0;
    const Vertex bv = (r >= abc || (r >= p.a && r < ab)) ? 1 : 0;
    ru = (ru << 1) | bu;
    rv = (rv << 1) | bv;
  }
  u = scramble(ru);
  v = scramble(rv);
}

}  // namespace

void RmatParams::validate() const {
  VALOCAL_REQUIRE(scale >= 1 && scale <= 30,
                  "rmat scale must be in [1, 30] (32-bit vertex ids; "
                  "see docs/GRAPHS.md)");
  VALOCAL_REQUIRE(edge_factor >= 1, "rmat edge_factor must be >= 1");
  VALOCAL_REQUIRE(a > 0 && b > 0 && c > 0 && a + b + c < 1.0,
                  "rmat probabilities must be positive with a+b+c < 1");
  VALOCAL_REQUIRE(num_directed_edges() / edge_factor == num_vertices(),
                  "rmat edge count overflows 64 bits");
}

RmatSource::RmatSource(const RmatParams& params) : params_(params) {
  params_.validate();
}

void RmatSource::stream(std::size_t num_threads, const BlockFn& fn) const {
  const RmatParams& p = params_;
  const IdScramble scramble(p.scale, p.seed, p.scramble_ids);
  const std::uint64_t total = p.num_directed_edges();
  const std::uint64_t num_blocks = (total + kBlockPairs - 1) / kBlockPairs;
  stream_ordered(
      num_threads, static_cast<std::size_t>(num_blocks),
      [&](std::size_t block, std::vector<Vertex>& buffer) {
        const std::uint64_t first = block * kBlockPairs;
        const std::uint64_t count =
            std::min<std::uint64_t>(kBlockPairs, total - first);
        buffer.resize(2 * count);
        for (std::uint64_t i = 0; i < count; ++i)
          rmat_pair(p, scramble, first + i, buffer[2 * i],
                    buffer[2 * i + 1]);
      },
      fn);
}

Graph rmat(const RmatParams& params, std::size_t num_threads) {
  const RmatSource source(params);
  return Graph::from_source(params.num_vertices(), source, num_threads);
}

RmatParams parse_rmat_spec(const std::string& spec, std::uint64_t seed) {
  const auto x = spec.find('x');
  VALOCAL_REQUIRE(x != std::string::npos && x > 0 && x + 1 < spec.size(),
                  "rmat spec must look like SCALExEDGE_FACTOR, "
                  "e.g. rmat:24x16");
  for (std::size_t i = 0; i < spec.size(); ++i)
    VALOCAL_REQUIRE(i == x || std::isdigit(static_cast<unsigned char>(
                                  spec[i])) != 0,
                    "rmat spec must be two decimal numbers, "
                    "e.g. rmat:24x16");
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(
      std::strtoul(spec.substr(0, x).c_str(), nullptr, 10));
  p.edge_factor = static_cast<std::size_t>(
      std::strtoull(spec.substr(x + 1).c_str(), nullptr, 10));
  p.seed = seed;
  p.validate();
  return p;
}

}  // namespace valocal::gen
