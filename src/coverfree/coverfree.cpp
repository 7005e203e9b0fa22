#include "coverfree/coverfree.hpp"

#include <algorithm>
#include <bit>

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

  recip_ = ~0ULL / q_;
  twos_ = static_cast<unsigned>(std::countr_zero(q_));
  const std::uint64_t odd = q_ >> twos_;
  // Newton's iteration doubles the correct low bits: 3, 6, ..., 96.
  odd_inv_ = odd;
  for (int i = 0; i < 5; ++i) odd_inv_ *= 2 - odd * odd_inv_;
  // With digits and x below q, a polynomial's value is at most
  // (q - 1)(1 + q + ... + q^(d-1)) = q^d - 1.
  exact_ = ipow_capped(q_, d_, ~0ULL) != ~0ULL;
}

CoverFreeFamily::QuotRem CoverFreeFamily::divmod_q(std::uint64_t v) const {
  QuotRem qr;
  qr.quot = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(v) * recip_) >> 64);
  qr.rem = v - qr.quot * q_;
  const std::uint64_t fix = qr.rem >= q_ ? 1 : 0;
  qr.quot += fix;
  qr.rem -= q_ & (0 - fix);
  return qr;
}

bool CoverFreeFamily::divisible(std::uint64_t v) const {
  return std::rotr(v * odd_inv_, static_cast<int>(twos_)) <= recip_;
}

void CoverFreeFamily::digits_of(std::uint64_t color,
                                std::uint64_t* out) const {
  for (unsigned i = 0; i < d_; ++i) {
    const QuotRem qr = divmod_q(color);
    out[i] = qr.rem;
    color = qr.quot;
  }
}

std::uint64_t CoverFreeFamily::eval_exact(const std::uint64_t* digits,
                                          std::uint64_t x) const {
  std::uint64_t acc = 0;
  for (unsigned i = d_; i-- > 0;) acc = acc * x + digits[i];
  return acc;
}

std::uint64_t CoverFreeFamily::eval_digits(const std::uint64_t* digits,
                                           std::uint64_t x) const {
  if (exact_) return divmod_q(eval_exact(digits, x)).rem;
  // Horner, most significant digit first, reducing every step; q < 2^32
  // keeps every acc * x + digit < q^2 within 64 bits.
  std::uint64_t acc = 0;
  for (unsigned i = d_; i-- > 0;) acc = divmod_q(acc * x + digits[i]).rem;
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
  // The parents' colors are split digit by digit across all parents,
  // so their independent quotient chains overlap, and each coefficient
  // is reduced without a branch (its sign is a coin flip).
  std::vector<std::uint64_t>& scratch =
      thread_scratch<CoverFreeFamily, std::uint64_t>();
  scratch.resize(others.size() * (d_ + 1));
  std::uint64_t* rest = scratch.data();  // parents' digits still unsplit
  std::uint64_t* diff = rest + others.size();
  std::size_t parents = 0;
  for (std::uint64_t other : others) {
    rest[parents] = other;
    parents += other != color ? 1 : 0;
  }
  for (unsigned i = 0; i < d_; ++i) {
    for (std::size_t p = 0; p < parents; ++p) {
      const QuotRem qr = divmod_q(rest[p]);
      rest[p] = qr.quot;
      const std::uint64_t borrow = qr.rem < own[i] ? 1 : 0;
      diff[p * d_ + i] = qr.rem - own[i] + (q_ & (0 - borrow));
    }
  }
  // Ascending points, first collision rejects the point: the first
  // point no parent hits carries the smallest escaping element.
  const auto first_escape = [&](auto hits) {
    for (std::uint64_t j = 0; j < q_; ++j) {
      std::size_t p = 0;
      while (p < parents && !hits(diff + p * d_, j)) ++p;
      if (p == parents) return j;
    }
    VALOCAL_ENSURE(false, "cover-free family failed to provide an escape");
    return q_;
  };
  const auto exact_hit = [this](const std::uint64_t* poly, std::uint64_t x) {
    return divisible(eval_exact(poly, x));
  };
  const auto reduced_hit = [this](const std::uint64_t* poly,
                                  std::uint64_t x) {
    return eval_digits(poly, x) == 0;
  };
  const std::uint64_t j =
      exact_ ? first_escape(exact_hit) : first_escape(reduced_hit);
  return j * q_ + eval_digits(own, j);
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
