#include "coverfree/coverfree.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "util/scratch.hpp"

namespace valocal {

namespace {

/// Smallest prime q with q^d >= m and q > r*(d-1).
std::uint64_t choose_prime(std::uint64_t m, std::size_t r, unsigned d) {
  // q >= ceil(m^(1/d)): find by doubling + binary search on q^d >= m.
  std::uint64_t lo = 2;
  while (ipow_capped(lo, d, ~0ULL >> 1) < m) lo *= 2;
  std::uint64_t hi = lo, base = lo / 2;
  // binary search in (base, hi]
  std::uint64_t root = hi;
  while (base + 1 < root) {
    const std::uint64_t mid = base + (root - base) / 2;
    if (ipow_capped(mid, d, ~0ULL >> 1) >= m)
      root = mid;
    else
      base = mid;
  }
  const std::uint64_t min_q =
      std::max<std::uint64_t>(root, static_cast<std::uint64_t>(r) * (d - 1) + 1);
  return next_prime(std::max<std::uint64_t>(2, min_q));
}

}  // namespace

CoverFreeFamily::CoverFreeFamily(std::uint64_t num_colors,
                                 std::size_t cover)
    : m_(num_colors), r_(cover) {
  VALOCAL_REQUIRE(num_colors >= 1, "family needs at least one color");
  VALOCAL_REQUIRE(cover >= 1, "cover parameter must be >= 1");

  // Pick the degree d minimizing the ground size q^2 subject to the
  // construction constraints. d ranges over a small window: beyond
  // d ~ log m / log(r d) the q > r(d-1) constraint dominates and q^2
  // starts growing again.
  std::uint64_t best_q = 0;
  unsigned best_d = 0;
  const unsigned d_max =
      static_cast<unsigned>(log2_ceil(std::max<std::uint64_t>(2, m_))) + 2;
  for (unsigned d = 1; d <= d_max; ++d) {
    const std::uint64_t q = choose_prime(m_, r_, d);
    if (best_q == 0 || q < best_q) {
      best_q = q;
      best_d = d;
    }
  }
  q_ = best_q;
  d_ = best_d;
  VALOCAL_ENSURE(ipow_capped(q_, d_, ~0ULL >> 1) >= m_,
                 "family must distinguish all colors");
  VALOCAL_ENSURE(q_ > static_cast<std::uint64_t>(r_) * (d_ - 1),
                 "cover-freeness constraint violated");
  VALOCAL_ENSURE(q_ <= 0xFFFFFFFFULL,
                 "ground set q^2 must fit in 64 bits");
  VALOCAL_ENSURE(d_ <= kMaxDigits, "degree exceeds the digit buffers");
}

void CoverFreeFamily::digits_of(std::uint64_t color,
                                std::uint64_t* out) const {
  for (unsigned i = 0; i < d_; ++i) {
    out[i] = color % q_;
    color /= q_;
  }
}

std::uint64_t CoverFreeFamily::eval_digits(const std::uint64_t* digits,
                                           std::uint64_t x) const {
  // Horner, most significant digit first; q < 2^32 keeps every
  // acc * x + digit < q^2 within 64 bits.
  std::uint64_t acc = 0;
  for (unsigned i = d_; i-- > 0;) acc = (acc * x + digits[i]) % q_;
  return acc;
}

std::uint64_t CoverFreeFamily::element(std::uint64_t color,
                                       std::uint64_t j) const {
  VALOCAL_DCHECK(color < m_, "color out of range");
  VALOCAL_DCHECK(j < q_, "set index out of range");
  std::uint64_t digits[kMaxDigits];
  digits_of(color, digits);
  return j * q_ + eval_digits(digits, j);
}

std::vector<std::uint64_t> CoverFreeFamily::set_of(
    std::uint64_t color) const {
  std::vector<std::uint64_t> out;
  out.reserve(q_);
  for (std::uint64_t j = 0; j < q_; ++j) out.push_back(element(color, j));
  return out;
}

std::uint64_t CoverFreeFamily::pick_escaping(
    std::uint64_t color, std::span<const std::uint64_t> others) const {
  VALOCAL_REQUIRE(others.size() <= r_,
                  "more parents than the family tolerates");
  std::uint64_t own[kMaxDigits];
  digits_of(color, own);
  // One difference polynomial p_o - p_color per parent o: our element
  // at point j lies in F_o exactly when it vanishes at j. A parent with
  // our own color is skipped — an identical set can never be escaped.
  std::vector<std::uint64_t>& diffs =
      thread_scratch<CoverFreeFamily, std::uint64_t>();
  diffs.resize(others.size() * d_);
  std::size_t parents = 0;
  for (std::uint64_t other : others) {
    if (other == color) continue;
    std::uint64_t* diff = diffs.data() + parents * d_;
    digits_of(other, diff);
    for (unsigned i = 0; i < d_; ++i)
      diff[i] = diff[i] >= own[i] ? diff[i] - own[i] : diff[i] + q_ - own[i];
    ++parents;
  }
  // Ascending points, first collision rejects the point: the first
  // point no parent hits carries the smallest escaping element.
  for (std::uint64_t j = 0; j < q_; ++j) {
    std::size_t p = 0;
    while (p < parents && eval_digits(diffs.data() + p * d_, j) != 0) ++p;
    if (p == parents) return j * q_ + eval_digits(own, j);
  }
  VALOCAL_ENSURE(false, "cover-free family failed to provide an escape");
  return 0;
}

std::uint64_t arb_linial_step_colors(std::uint64_t p, std::size_t r) {
  const CoverFreeFamily family(p, r);
  return family.ground_size();
}

std::vector<std::uint64_t> arb_linial_schedule(std::uint64_t p0,
                                               std::size_t r) {
  std::vector<std::uint64_t> seq{p0};
  while (true) {
    const std::uint64_t next = arb_linial_step_colors(seq.back(), r);
    if (next >= seq.back()) break;
    seq.push_back(next);
  }
  return seq;
}

}  // namespace valocal
