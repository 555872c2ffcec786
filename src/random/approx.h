// Certified i-bit approximations (Definition 3.2) of the probabilities the
// DPSS algorithm samples from.
//
// Values are enclosed in fixed-point intervals [lo, hi] · 2^-frac_bits with
// directed (outward) rounding, so `lo/2^F <= value <= hi/2^F` always holds
// and the enclosure width is certified to be at most 2^-target. This is the
// "working precision" arithmetic of Lemmas 3.3/3.4, specialised to the
// value range [0, 2] that all our probabilities inhabit (which lets plain
// scaled integers replace exponent/mantissa floats).
//
// Provided approximations:
//   * ApproxRational  — num/den                        (exact up to 1 ulp)
//   * ApproxPow       — (num/den)^m, num <= den        (binary exponentiation)
//   * ApproxPStar     — p* = (1-(1-q)^n)/(nq), nq <= 1 (Lemma 3.3 series)
//   * ApproxHalfRecipPStar — 1/(2p*)                   (Lemma 3.4)

#ifndef DPSS_RANDOM_APPROX_H_
#define DPSS_RANDOM_APPROX_H_

#include <cstdint>

#include "bigint/big_uint.h"
#include "bigint/u128.h"
#include "util/bits.h"
#include "util/check.h"

namespace dpss {

// A certified enclosure [lo, hi] · 2^-frac_bits of a non-negative real.
struct FixedInterval {
  BigUInt lo;
  BigUInt hi;
  int frac_bits = 0;

  // Compares lo (resp. hi) against the dyadic rational u / 2^i.
  // Requires i <= frac_bits. Returns <0, 0, >0.
  int CompareLoWithDyadic(const BigUInt& u, int i) const {
    DPSS_DCHECK(i <= frac_bits);
    return BigUInt::Compare(lo, u << (frac_bits - i));
  }
  int CompareHiWithDyadic(const BigUInt& u, int i) const {
    DPSS_DCHECK(i <= frac_bits);
    return BigUInt::Compare(hi, u << (frac_bits - i));
  }

  // Enclosure width as a double (diagnostics/tests).
  double WidthToDouble() const;
  // Midpoint value as a double (diagnostics/tests).
  double MidToDouble() const;
};

// Enclosure of num/den with width <= 2^-target_bits. Requires den > 0.
FixedInterval ApproxRational(const BigUInt& num, const BigUInt& den,
                             int target_bits);

// Enclosure of (num/den)^m with width <= 2^-target_bits.
// Requires 0 <= num <= den, den > 0, m >= 0.
FixedInterval ApproxPow(const BigUInt& num, const BigUInt& den, uint64_t m,
                        int target_bits);

// Enclosure of p* = (1 - (1-q)^n) / (n q) with q = qnum/qden, width
// <= 2^-target_bits. Requires 0 < q, n >= 1, and n·q <= 1 (paper Thm 3.1).
// Uses the alternating binomial series of Lemma 3.3 truncated at
// target_bits + 3 terms (term magnitudes halve at least geometrically).
// The outward-rounded term enclosure reaches the fixed point (0, 1) ulp
// after a dozen or so terms at the first-rung precision; the series stops
// there and adds the remaining terms' (0, 1) in closed form, which gives
// the same integers as running every term.
FixedInterval ApproxPStar(const BigUInt& qnum, const BigUInt& qden, uint64_t n,
                          int target_bits);

// Enclosure of 1/(2 p*) with width <= 2^-target_bits (Lemma 3.4: p* >= 1/2
// under n·q <= 1, so the reciprocal is a probability in [1/2, 1]).
FixedInterval ApproxHalfRecipPStar(const BigUInt& qnum, const BigUInt& qden,
                                   uint64_t n, int target_bits);

// --- Small-integer fast path ----------------------------------------------
//
// First-rung enclosures computed entirely in machine words. These are exact
// value-level mirrors of ApproxPow / ApproxPStar at small target precisions
// (the first rung of the lazy Bernoulli framework uses target_bits == 18):
// for equal operand values they produce the same lo/hi/frac_bits integers,
// so a coin resolved against a small enclosure decides identically to one
// resolved against the BigUInt enclosure.

struct SmallInterval {
  uint64_t lo = 0;
  uint64_t hi = 0;
  int frac_bits = 0;
};

// f-fractional-bit fixed-point products with directed rounding, for
// word-sized values (a, b <= 2^60). Shared by ApproxPowSmallFromBase and
// the squares-chain memo in random/block_rng.cc, which must round exactly
// like the uncached computation.
inline uint64_t MulFloorSmall(uint64_t a, uint64_t b, int f) {
  return static_cast<uint64_t>((static_cast<U128>(a) * b) >> f);
}
inline uint64_t MulCeilSmall(uint64_t a, uint64_t b, int f) {
  const U128 p = static_cast<U128>(a) * b;
  uint64_t q = static_cast<uint64_t>(p >> f);
  if ((static_cast<U128>(q) << f) != p) ++q;
  return q;
}

// Mirror of ApproxPow(num, den, m, target_bits) for 0 < num < den, m >= 2.
// Requires target_bits small enough that the working precision stays below
// 60 bits (the callers use 18). Works for any 128-bit operands.
SmallInterval ApproxPowSmall(U128 num, U128 den, uint64_t m, int target_bits);

// ApproxPowSmall decomposed, so the expensive half can be cached. The
// working precision f depends on m only through bitlen(m) (each of the
// <= 2·bitlen(m)+2 interval multiplications spends error budget), the base
// enclosure of num/den at f fractional bits is one long division — the
// dominant cost — and the square-and-multiply continuation is cheap word
// arithmetic. ApproxPowSmall(num, den, m, t) is by definition
//   ApproxPowSmallFromBase(base_lo, base_hi, f, m)
// with f = ApproxPowSmallFracBits(m, t) and (base_lo, base_hi) from
// ApproxPowSmallBase(num, den, f); the block-RNG layer memoizes the base
// per (num, den, f) (see random/block_rng.h).
inline int ApproxPowSmallFracBits(uint64_t m, int target_bits) {
  const int ops = 2 * BitLength(m) + 2;
  return target_bits + CeilLog2(static_cast<uint64_t>(ops)) + 4;
}
void ApproxPowSmallBase(U128 num, U128 den, int f, uint64_t* base_lo,
                        uint64_t* base_hi);
SmallInterval ApproxPowSmallFromBase(uint64_t base_lo, uint64_t base_hi, int f,
                                     uint64_t m);

// Mirror of ApproxPStar(qnum, qden, n, target_bits) for n >= 2, step for
// step (including the fixed-point stop); a step divides in 64 bits when
// its products and divisor fit one word. Returns false (leaving *out
// untouched) when an intermediate product could exceed 128 bits; callers
// then fall back to the BigUInt oracle.
bool ApproxPStarSmall(U128 qnum, U128 qden, uint64_t n, int target_bits,
                      SmallInterval* out);

}  // namespace dpss

#endif  // DPSS_RANDOM_APPROX_H_
