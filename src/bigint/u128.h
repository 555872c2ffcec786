// Two-word ("small") integer layer for the query fast path.
//
// In the common u64-weight regime every numerator and denominator the query
// algorithms manipulate fits in at most two machine words. This header
// provides the u128 primitives the fast-path overloads in src/random/ and
// the HALT query code build on: bit lengths, overflow-checked shifts, and
// the fixed-point division kernel used by the first approximation rung of
// the lazy Bernoulli samplers.
//
// Every fast-path routine is an exact value-level mirror of its BigUInt
// counterpart: given equal operand values it consumes the same random bits
// and returns the same result, so dispatching on operand size never changes
// the sampling distribution (tests/fastpath_equivalence_test.cc drives both
// paths from one seed and asserts identical outputs).

#ifndef DPSS_BIGINT_U128_H_
#define DPSS_BIGINT_U128_H_

#include <cstdint>

#include "util/bits.h"
#include "util/check.h"

namespace dpss {

using U128 = unsigned __int128;

// Number of significant bits of `x`: 0 for x == 0 (mirrors
// BigUInt::BitLength).
inline int BitLength(U128 x) {
  const uint64_t hi = static_cast<uint64_t>(x >> 64);
  return hi != 0 ? 64 + BitLength(hi) : BitLength(static_cast<uint64_t>(x));
}

// True iff v << k is representable in 128 bits (v != 0).
inline bool ShiftLeftFits(U128 v, int k) {
  return BitLength(v) + k <= 128;
}

// True iff a * b is representable in 128 bits. Conservative only in the
// exact-boundary sense: BitLength(a) + BitLength(b) <= 128 guarantees
// a * b < 2^128.
inline bool MulFits(U128 a, U128 b) {
  return a == 0 || b == 0 || BitLength(a) + BitLength(b) <= 128;
}

// Compares a with b << k (k >= 0) without overflow. Returns <0, 0, >0.
inline int CompareShifted(U128 a, U128 b, int k) {
  DPSS_DCHECK(k >= 0);
  if (b != 0 && BitLength(b) + k > 128) return -1;  // b << k >= 2^128 > a
  const U128 s = b << k;
  return a < s ? -1 : (a == s ? 0 : 1);
}

// ⌊log2(a/b)⌋ for a, b > 0 — the u128 mirror of BigRational::FloorLog2
// (Claim 4.3): bit lengths give the candidate within one, a shifted
// comparison settles it. May be negative.
inline int FloorLog2Ratio(U128 a, U128 b) {
  DPSS_DCHECK(a != 0 && b != 0);
  const int k0 = BitLength(a) - BitLength(b);
  // floor(log2(a/b)) ∈ {k0-1, k0}: compare a with b·2^k0.
  if (k0 >= 0) return CompareShifted(a, b, k0) >= 0 ? k0 : k0 - 1;
  return CompareShifted(b, a, -k0) <= 0 ? k0 : k0 - 1;
}

// ⌈log2(a/b)⌉ given f = FloorLog2Ratio(a, b): equal to f iff a/b is an
// exact power of two (the mirror of BigRational::CeilLog2).
inline int CeilLog2RatioFromFloor(U128 a, U128 b, int f) {
  const int cmp = f >= 0 ? CompareShifted(a, b, f) : CompareShifted(b, a, -f);
  return cmp == 0 ? f : f + 1;
}

// ⌈log2(a/b)⌉ for a, b > 0. May be negative.
inline int CeilLog2Ratio(U128 a, U128 b) {
  return CeilLog2RatioFromFloor(a, b, FloorLog2Ratio(a, b));
}

// floor((a << f) / b) for a < b, b != 0, 0 <= f <= 60 (so the quotient fits
// one word); *exact (if non-null) tells whether the division left no
// remainder. When a << f fits 128 bits this is one division; otherwise a
// shift-subtract long division simulates the 192-bit intermediate by
// tracking the bit shifted out of the 128-bit remainder. Both give the same
// quotient and remainder. The loop's f data-dependent branches cost tens of
// times the division, so only operands within f bits of 2^128 pay them.
inline uint64_t ShlDivFloor(U128 a, U128 b, int f, bool* exact) {
  DPSS_DCHECK(b != 0 && a < b && f >= 0 && f <= 60);
  if (BitLength(a) + f <= 128) {
    const U128 num = a << f;
    const uint64_t q = static_cast<uint64_t>(num / b);
    if (exact != nullptr) *exact = (num == static_cast<U128>(q) * b);
    return q;
  }
  U128 r = a;
  uint64_t q = 0;
  for (int s = 0; s < f; ++s) {
    const bool top = (r >> 127) != 0;
    r <<= 1;
    q <<= 1;
    // If the shifted-out bit is set the true remainder is r + 2^128 >= b,
    // and (r - b) mod 2^128 is the correct new remainder (< b < 2^128).
    if (top || r >= b) {
      r -= b;
      q |= 1;
    }
  }
  if (exact != nullptr) *exact = (r == 0);
  return q;
}

}  // namespace dpss

#endif  // DPSS_BIGINT_U128_H_
