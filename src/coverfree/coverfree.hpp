// Constructive cover-free set families (Linial [19]; used by Procedure
// Arb-Linial-Coloring, Sections 7.2-7.3 / [8]).
//
// An (m, r)-cover-free family over a ground set [g] is a collection of
// m sets such that no set is contained in the union of any r others.
// Given such a family, a vertex colored c with at most r parents colored
// c_1..c_r can pick an element of F_c escaping F_{c_1} u ... u F_{c_r}
// in a single round, turning an m-coloring into a g-coloring.
//
// Construction (Reed-Solomon style): pick a prime q and degree bound d
// with q^d >= m and q > r*(d-1). Identify color c with a polynomial
// p_c of degree < d over GF(q) (base-q digits of c as coefficients) and
// let F_c = { (x, p_c(x)) : x in GF(q) } encoded into [q^2]. Distinct
// polynomials agree on < d points, so the union of r other sets misses
// at least q - r(d-1) >= 1 elements of F_c. Ground size q^2 =
// O(r^2 log^2 m / log^2(r log m)) — within the O(r^2 log m) regime the
// paper quotes for a single reduction step (substitution S1 in
// DESIGN.md covers the final-step difference).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace valocal {

class CoverFreeFamily {
 public:
  /// Family of `num_colors` sets, robust against unions of up to
  /// `cover` other sets. num_colors >= 1, cover >= 1.
  CoverFreeFamily(std::uint64_t num_colors, std::size_t cover);

  std::uint64_t num_colors() const { return m_; }
  std::size_t cover() const { return r_; }
  std::uint64_t ground_size() const { return q_ * q_; }
  std::uint64_t set_size() const { return q_; }
  std::uint64_t prime() const { return q_; }
  unsigned degree() const { return d_; }

  /// j-th element (j in [0, q)) of the set of color c: (j, p_c(j))
  /// encoded as j*q + p_c(j).
  std::uint64_t element(std::uint64_t color, std::uint64_t j) const;

  /// The full set of a color, ascending.
  std::vector<std::uint64_t> set_of(std::uint64_t color) const;

  /// Picks an element of F_color not contained in any F_p for p in
  /// `others` (entries equal to `color` are ignored, duplicates are
  /// allowed). Guaranteed to exist when others.size() <= cover().
  /// This is the single-round recoloring step of Arb-Linial.
  ///
  /// The pick is the element at the smallest escaping evaluation point
  /// j*, i.e. the smallest element of set_of(color) outside the union —
  /// every coloring output and the stored benchmark goldens rely on
  /// exactly this choice. Points are tried in ascending order and a
  /// point is rejected at its first colliding parent, so one call
  /// costs O((j* + 1) * r * d) field operations for r parents, plus
  /// O(r * d) to split the parents' colors into base-q digits once.
  /// No operation divides: digits split by a multiply-high reciprocal,
  /// and when q^d < 2^64 a parent's difference polynomial is evaluated
  /// exactly and tested for divisibility by q with q's inverse (else
  /// every Horner step reduces by the reciprocal). Allocation-free once
  /// the calling thread has seen its largest parent list.
  std::uint64_t pick_escaping(std::uint64_t color,
                              std::span<const std::uint64_t> others) const;

 private:
  // d never exceeds log2_ceil(m) + 2 <= 66 (the constructor's window).
  static constexpr unsigned kMaxDigits = 66;

  /// The d base-q digits of `color`, least significant first.
  void digits_of(std::uint64_t color, std::uint64_t* out) const;
  /// The polynomial with coefficients `digits` evaluated at x, mod q.
  std::uint64_t eval_digits(const std::uint64_t* digits,
                            std::uint64_t x) const;
  /// The same polynomial evaluated over the integers, mod 2^64: the
  /// exact value when exact_ holds.
  std::uint64_t eval_exact(const std::uint64_t* digits,
                           std::uint64_t x) const;
  /// v / q and v mod q for any 64-bit v: the multiply-high quotient
  /// estimate is floor(v / q) or one less, so one conditional step
  /// fixes it.
  struct QuotRem {
    std::uint64_t quot;
    std::uint64_t rem;
  };
  QuotRem divmod_q(std::uint64_t v) const;
  /// Whether q divides v: q = 2^s * o with o odd divides v exactly
  /// when rotr(v * o^-1 mod 2^64, s) <= floor((2^64 - 1) / q).
  bool divisible(std::uint64_t v) const;

  std::uint64_t m_;  // number of colors the family distinguishes
  std::size_t r_;    // cover-freeness parameter
  std::uint64_t q_;  // field size (prime)
  unsigned d_;       // number of base-q digits (degree bound)
  std::uint64_t recip_ = 0;    // floor((2^64 - 1) / q)
  std::uint64_t odd_inv_ = 0;  // inverse of q's odd part mod 2^64
  unsigned twos_ = 0;          // q = 2^twos_ * odd part
  bool exact_ = false;         // q^d < 2^64: exact polynomial values
};

/// The color count produced by one Arb-Linial step applied to a
/// p-coloring with cover parameter r: the family's ground size.
std::uint64_t arb_linial_step_colors(std::uint64_t p, std::size_t r);

/// The full Arb-Linial color schedule starting from p0 colors: applies
/// steps while they strictly reduce the palette, returning the sequence
/// p0 > p1 > ... > p_final. Its length - 1 is the number of rounds every
/// vertex budgets for the iterated reduction (O(log* p0) steps, ending
/// at the O(r^2 log r) fixed point — substitution S1).
std::vector<std::uint64_t> arb_linial_schedule(std::uint64_t p0,
                                               std::size_t r);

}  // namespace valocal
