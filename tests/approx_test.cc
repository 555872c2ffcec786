// Tests for the certified fixed-point approximations: enclosure soundness
// (true value inside [lo, hi]), certified width, and agreement with
// double-precision references across parameter sweeps.

#include "random/approx.h"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "random/bernoulli.h"
#include "util/random.h"

namespace dpss {
namespace {

double PStarReference(double q, uint64_t n) {
  return (1.0 - std::pow(1.0 - q, static_cast<double>(n))) /
         (static_cast<double>(n) * q);
}

// Checks that `enc` encloses `value` (within double slack) and is narrow.
void ExpectEncloses(const FixedInterval& enc, double value, int target_bits) {
  const double lo = std::ldexp(enc.lo.ToDouble(), -enc.frac_bits);
  const double hi = std::ldexp(enc.hi.ToDouble(), -enc.frac_bits);
  const double slack = 1e-9 + std::abs(value) * 1e-9;
  EXPECT_LE(lo, value + slack);
  EXPECT_GE(hi, value - slack);
  EXPECT_LE(enc.WidthToDouble(), std::ldexp(1.0, -target_bits) * 1.0001);
}

TEST(ApproxRationalTest, EnclosesAndIsTight) {
  RandomEngine rng(1);
  for (int iter = 0; iter < 500; ++iter) {
    const uint64_t den = 1 + rng.NextBelow(1u << 20);
    const uint64_t num = rng.NextBelow(den + 1);
    const int t = 8 + static_cast<int>(rng.NextBelow(60));
    const FixedInterval enc = ApproxRational(BigUInt(num), BigUInt(den), t);
    ExpectEncloses(enc, static_cast<double>(num) / den, t);
  }
}

TEST(ApproxRationalTest, ExactDyadicHasZeroWidth) {
  const FixedInterval enc =
      ApproxRational(BigUInt(uint64_t{3}), BigUInt(uint64_t{8}), 30);
  EXPECT_EQ(BigUInt::Compare(enc.lo, enc.hi), 0);
}

TEST(ApproxPowTest, MatchesDoubleReference) {
  RandomEngine rng(2);
  for (int iter = 0; iter < 300; ++iter) {
    const uint64_t den = 2 + rng.NextBelow(1000000);
    const uint64_t num = rng.NextBelow(den);
    const uint64_t m = 1 + rng.NextBelow(1000);
    const int t = 20 + static_cast<int>(rng.NextBelow(40));
    const FixedInterval enc = ApproxPow(BigUInt(num), BigUInt(den), m, t);
    const double value =
        std::pow(static_cast<double>(num) / den, static_cast<double>(m));
    ExpectEncloses(enc, value, t);
  }
}

TEST(ApproxPowTest, EdgeCases) {
  // m == 0 -> exactly 1.
  FixedInterval one = ApproxPow(BigUInt(uint64_t{1}), BigUInt(uint64_t{3}), 0, 16);
  EXPECT_EQ(one.MidToDouble(), 1.0);
  EXPECT_EQ(one.WidthToDouble(), 0.0);
  // base 0 -> exactly 0.
  FixedInterval zero = ApproxPow(BigUInt(), BigUInt(uint64_t{3}), 5, 16);
  EXPECT_EQ(zero.MidToDouble(), 0.0);
  // base 1 -> exactly 1.
  FixedInterval unit =
      ApproxPow(BigUInt(uint64_t{7}), BigUInt(uint64_t{7}), 999, 16);
  EXPECT_EQ(unit.MidToDouble(), 1.0);
}

TEST(ApproxPowTest, HugeExponentUnderflowsToZero) {
  // (1/2)^(2^40) is far below 2^-64; the enclosure must be [0, ~2^-64].
  const FixedInterval enc = ApproxPow(BigUInt(uint64_t{1}), BigUInt(uint64_t{2}),
                                      uint64_t{1} << 40, 64);
  EXPECT_EQ(enc.lo.ToDouble(), 0.0);
  EXPECT_LE(enc.WidthToDouble(), std::ldexp(1.0, -64) * 1.0001);
}

TEST(ApproxPowTest, PrecisionScalesWithTarget) {
  for (int t : {8, 16, 32, 64, 128, 256}) {
    const FixedInterval enc =
        ApproxPow(BigUInt(uint64_t{2}), BigUInt(uint64_t{3}), 100, t);
    EXPECT_LE(enc.WidthToDouble(), std::ldexp(1.0, -t) * 1.0001) << t;
  }
}

TEST(ApproxPStarTest, MatchesDoubleReference) {
  RandomEngine rng(3);
  for (int iter = 0; iter < 300; ++iter) {
    const uint64_t n = 1 + rng.NextBelow(10000);
    // q <= 1/n: pick q = qnum / (n * scale) with qnum <= scale.
    const uint64_t scale = 1 + rng.NextBelow(1000);
    const uint64_t qnum = 1 + rng.NextBelow(scale);
    const BigUInt qden = BigUInt::MulU64(BigUInt(n), scale);
    const int t = 20 + static_cast<int>(rng.NextBelow(40));
    const FixedInterval enc = ApproxPStar(BigUInt(qnum), qden, n, t);
    const double q = static_cast<double>(qnum) /
                     (static_cast<double>(n) * static_cast<double>(scale));
    ExpectEncloses(enc, PStarReference(q, n), t);
  }
}

TEST(ApproxPStarTest, NEqualsOneIsExactlyOne) {
  const FixedInterval enc =
      ApproxPStar(BigUInt(uint64_t{1}), BigUInt(uint64_t{2}), 1, 32);
  EXPECT_EQ(enc.MidToDouble(), 1.0);
  EXPECT_EQ(enc.WidthToDouble(), 0.0);
}

TEST(ApproxPStarTest, BoundaryNQEqualsOne) {
  // q = 1/n exactly: p* = (1-(1-1/n)^n) * 1 -> ~1-1/e for large n.
  for (uint64_t n : {2ull, 3ull, 10ull, 1000ull, 1000000ull}) {
    const FixedInterval enc = ApproxPStar(BigUInt(uint64_t{1}), BigUInt(n), n, 40);
    ExpectEncloses(enc, PStarReference(1.0 / static_cast<double>(n), n), 40);
  }
}

TEST(ApproxPStarTest, ValueStaysInHalfOneRange) {
  RandomEngine rng(4);
  for (int iter = 0; iter < 200; ++iter) {
    const uint64_t n = 2 + rng.NextBelow(100000);
    const uint64_t qnum = 1;
    const uint64_t extra = 1 + rng.NextBelow(50);
    const BigUInt qden = BigUInt::MulU64(BigUInt(n), extra);
    const FixedInterval enc = ApproxPStar(BigUInt(qnum), qden, n, 40);
    EXPECT_GE(enc.MidToDouble(), 0.5 - 1e-6);
    EXPECT_LE(enc.MidToDouble(), 1.0 + 1e-6);
  }
}

TEST(ApproxHalfRecipPStarTest, MatchesDoubleReference) {
  RandomEngine rng(5);
  for (int iter = 0; iter < 300; ++iter) {
    const uint64_t n = 1 + rng.NextBelow(10000);
    const uint64_t scale = 1 + rng.NextBelow(1000);
    const uint64_t qnum = 1 + rng.NextBelow(scale);
    const BigUInt qden = BigUInt::MulU64(BigUInt(n), scale);
    const int t = 20 + static_cast<int>(rng.NextBelow(30));
    const FixedInterval enc = ApproxHalfRecipPStar(BigUInt(qnum), qden, n, t);
    const double q = static_cast<double>(qnum) /
                     (static_cast<double>(n) * static_cast<double>(scale));
    ExpectEncloses(enc, 1.0 / (2.0 * PStarReference(q, n)), t);
  }
}

TEST(ApproxHalfRecipPStarTest, IsAProbabilityInHalfOne) {
  RandomEngine rng(6);
  for (int iter = 0; iter < 200; ++iter) {
    const uint64_t n = 1 + rng.NextBelow(100000);
    const BigUInt qden = BigUInt::MulU64(BigUInt(n), 3);
    const FixedInterval enc =
        ApproxHalfRecipPStar(BigUInt(uint64_t{2}), qden, n, 40);
    EXPECT_GE(enc.MidToDouble(), 0.5 - 1e-6);
    EXPECT_LE(enc.MidToDouble(), 1.0 + 1e-6);
  }
}

// --- Word-arithmetic shortcuts against the full loops ----------------------
//
// ShlDivFloor divides once when a << f fits 128 bits, and both p* series
// stop at the (0, 1) fixed point and add the remaining steps in closed
// form. The oracles below are verbatim copies of the full loops those
// shortcuts replace; every shortcut must land on the same integers.

uint64_t OracleShlDivFloor(U128 a, U128 b, int f, bool* exact) {
  U128 r = a;
  uint64_t q = 0;
  for (int s = 0; s < f; ++s) {
    const bool top = (r >> 127) != 0;
    r <<= 1;
    q <<= 1;
    if (top || r >= b) {
      r -= b;
      q |= 1;
    }
  }
  if (exact != nullptr) *exact = (r == 0);
  return q;
}

bool OracleApproxPStarSmall(U128 qnum, U128 qden, uint64_t n, int target_bits,
                            SmallInterval* out) {
  const uint64_t terms = static_cast<uint64_t>(target_bits) + 3;
  const int f = target_bits + CeilLog2(terms + 2) + 6;
  if ((f + 1) + BitLength(qnum) + BitLength(n) > 128) return false;
  if (BitLength(qden) + BitLength(terms + 1) > 128) return false;

  U128 t_lo = static_cast<U128>(1) << f;  // t_1 = 1
  U128 t_hi = t_lo;
  U128 pos_lo = t_lo, pos_hi = t_hi;
  U128 neg_lo = 0, neg_hi = 0;

  for (uint64_t j = 1; j < terms && j < n; ++j) {
    const U128 mul_num = qnum * (n - j);
    const U128 mul_den = qden * (j + 1);
    t_lo = (t_lo * mul_num) / mul_den;
    t_hi = (t_hi * mul_num) / mul_den + 1;
    if ((j + 1) % 2 == 0) {
      neg_lo += t_lo;
      neg_hi += t_hi;
    } else {
      pos_lo += t_lo;
      pos_hi += t_hi;
    }
    if (t_hi == 0) break;
  }

  U128 tail = 0;
  if (terms < n) {
    const int tail_shift = f - static_cast<int>(terms) + 1;
    tail = tail_shift >= 0 ? static_cast<U128>(1) << tail_shift
                           : static_cast<U128>(1);
  }

  const U128 down = neg_hi + tail;
  U128 lo_bound = pos_lo > down ? pos_lo - down : 0;
  U128 hi_bound = pos_hi + tail;
  hi_bound = hi_bound > neg_lo ? hi_bound - neg_lo : 0;
  const U128 one = static_cast<U128>(1) << f;
  if (hi_bound > one) hi_bound = one;
  if (lo_bound > hi_bound) lo_bound = hi_bound;

  out->frac_bits = f;
  out->lo = static_cast<uint64_t>(lo_bound);
  out->hi = static_cast<uint64_t>(hi_bound);
  return true;
}

FixedInterval OracleApproxPStar(const BigUInt& qnum, const BigUInt& qden,
                                uint64_t n, int target_bits) {
  FixedInterval out;
  if (n == 1) {
    out.frac_bits = target_bits;
    out.lo = BigUInt::PowerOfTwo(target_bits);
    out.hi = out.lo;
    return out;
  }
  const uint64_t terms = static_cast<uint64_t>(target_bits) + 3;
  const int f = target_bits + CeilLog2(terms + 2) + 6;

  BigUInt t_lo = BigUInt::PowerOfTwo(f);  // t_1 = 1
  BigUInt t_hi = t_lo;
  BigUInt pos_lo = t_lo, pos_hi = t_hi;
  BigUInt neg_lo, neg_hi;  // zero

  for (uint64_t j = 1; j < terms && j < n; ++j) {
    const BigUInt mul_num = BigUInt::MulU64(qnum, n - j);
    const BigUInt mul_den = BigUInt::MulU64(qden, j + 1);
    t_lo = BigUInt::Div(t_lo * mul_num, mul_den);
    t_hi = BigUInt::Div(t_hi * mul_num, mul_den);
    t_hi.Increment();
    if ((j + 1) % 2 == 0) {
      neg_lo = neg_lo + t_lo;
      neg_hi = neg_hi + t_hi;
    } else {
      pos_lo = pos_lo + t_lo;
      pos_hi = pos_hi + t_hi;
    }
    if (t_hi.IsZero()) break;
  }

  BigUInt tail;
  if (terms < n) {
    const int tail_shift = f - static_cast<int>(terms) + 1;
    tail = tail_shift >= 0 ? BigUInt::PowerOfTwo(tail_shift)
                           : BigUInt(uint64_t{1});
  }

  BigUInt lo_bound = pos_lo;
  const BigUInt down = neg_hi + tail;
  lo_bound = BigUInt::Compare(lo_bound, down) > 0 ? BigUInt::Sub(lo_bound, down)
                                                  : BigUInt();
  BigUInt hi_bound = pos_hi + tail;
  hi_bound = BigUInt::Compare(hi_bound, neg_lo) > 0
                 ? BigUInt::Sub(hi_bound, neg_lo)
                 : BigUInt();
  const BigUInt one = BigUInt::PowerOfTwo(f);
  if (BigUInt::Compare(hi_bound, one) > 0) hi_bound = one;
  if (BigUInt::Compare(lo_bound, hi_bound) > 0) lo_bound = hi_bound;

  out.frac_bits = f;
  out.lo = std::move(lo_bound);
  out.hi = std::move(hi_bound);
  return out;
}

// A uniformly random value of exactly `bits` bits (bits in [1, 128]).
U128 RandomOfBitLength(int bits, RandomEngine& rng) {
  const U128 top = static_cast<U128>(1) << (bits - 1);
  return top | (bits > 1 ? RandomBigBelow(top, rng) : 0);
}

void ExpectShlDivMatchesOracle(U128 a, U128 b, int f) {
  bool exact = false, oracle_exact = true;
  const uint64_t q = ShlDivFloor(a, b, f, &exact);
  const uint64_t oracle = OracleShlDivFloor(a, b, f, &oracle_exact);
  ASSERT_EQ(q, oracle) << "bits(a)=" << BitLength(a) << " bits(b)="
                       << BitLength(b) << " f=" << f;
  ASSERT_EQ(exact, oracle_exact) << "bits(a)=" << BitLength(a)
                                 << " bits(b)=" << BitLength(b) << " f=" << f;
  // The flag is optional.
  ASSERT_EQ(ShlDivFloor(a, b, f, nullptr), oracle);
}

TEST(ShlDivFloorTest, RandomOperandsMatchBitLoop) {
  RandomEngine rng(41);
  for (int iter = 0; iter < 20000; ++iter) {
    const int b_bits = 1 + static_cast<int>(rng.NextBelow(128));
    const U128 b = RandomOfBitLength(b_bits, rng);
    if (b < 2) continue;
    const U128 a = RandomBigBelow(b, rng);
    const int f = static_cast<int>(rng.NextBelow(61));
    ExpectShlDivMatchesOracle(a, b, f);
  }
}

TEST(ShlDivFloorTest, DivisionBoundaryAt128Bits) {
  // BitLength(a) + f = 128 takes the one-division path, 129 the bit loop;
  // both around b below and at or above 2^64.
  RandomEngine rng(42);
  for (int iter = 0; iter < 4000; ++iter) {
    const int f = static_cast<int>(rng.NextBelow(61));
    for (int total : {127, 128, 129}) {
      const int a_bits = total - f;
      if (a_bits < 1 || a_bits > 127) continue;
      const U128 a = RandomOfBitLength(a_bits, rng);
      // b > a: same bit length (and larger) or strictly longer.
      const int b_bits =
          a_bits + static_cast<int>(rng.NextBelow(129 - a_bits));
      U128 b = RandomOfBitLength(b_bits, rng);
      if (b <= a) b = a + 1;
      ExpectShlDivMatchesOracle(a, b, f);
    }
  }
}

TEST(ShlDivFloorTest, WideDivisorsAndExactQuotients) {
  RandomEngine rng(43);
  for (int iter = 0; iter < 4000; ++iter) {
    // b >= 2^64 forces the two-word divide (or the loop when a << f spills).
    const U128 b = RandomOfBitLength(65 + static_cast<int>(rng.NextBelow(64)),
                                     rng);
    const U128 a = RandomBigBelow(b, rng);
    ExpectShlDivMatchesOracle(a, b, static_cast<int>(rng.NextBelow(61)));
  }
  // Exact divisions: a/b = k/2^s with s <= f leaves no remainder.
  for (int s = 0; s <= 60; ++s) {
    for (U128 b : {static_cast<U128>(1) << s,
                   (static_cast<U128>(3) << 64) << s,
                   (static_cast<U128>(5) << 100) << (s > 24 ? 24 : s)}) {
      if (b < 2) continue;
      ExpectShlDivMatchesOracle(b / 2, b, 60);
      ExpectShlDivMatchesOracle(b - 1, b, 60);
      ExpectShlDivMatchesOracle(1, b, 60);
    }
  }
}

void ExpectPStarMatchesOracles(U128 qnum, U128 qden, uint64_t n, int target) {
  SmallInterval small, oracle_small;
  const bool ok = ApproxPStarSmall(qnum, qden, n, target, &small);
  ASSERT_EQ(ok, OracleApproxPStarSmall(qnum, qden, n, target, &oracle_small));
  if (ok) {
    EXPECT_EQ(small.lo, oracle_small.lo);
    EXPECT_EQ(small.hi, oracle_small.hi);
    EXPECT_EQ(small.frac_bits, oracle_small.frac_bits);
  }
  const BigUInt bqnum = BigUInt::FromU128(qnum);
  const BigUInt bqden = BigUInt::FromU128(qden);
  const FixedInterval big = ApproxPStar(bqnum, bqden, n, target);
  const FixedInterval oracle = OracleApproxPStar(bqnum, bqden, n, target);
  EXPECT_EQ(BigUInt::Compare(big.lo, oracle.lo), 0);
  EXPECT_EQ(BigUInt::Compare(big.hi, oracle.hi), 0);
  EXPECT_EQ(big.frac_bits, oracle.frac_bits);
  if (ok) {
    EXPECT_EQ(BigUInt::Compare(big.lo, BigUInt(small.lo)), 0);
    EXPECT_EQ(BigUInt::Compare(big.hi, BigUInt(small.hi)), 0);
  }
}

TEST(ApproxPStarTest, FixedPointStopMatchesFullSeries) {
  for (int target : {18, 40}) {
    const uint64_t terms = static_cast<uint64_t>(target) + 3;
    for (uint64_t n : {uint64_t{2}, uint64_t{3}, terms - 1, terms, terms + 1,
                       uint64_t{1} << 16, uint64_t{1} << 40}) {
      SCOPED_TRACE("target=" + std::to_string(target) +
                   " n=" + std::to_string(n));
      const U128 un = n;
      // n·q = 2^-40, 1/2 and exactly 1, each in a reduced and a scaled
      // representation.
      for (uint64_t scale : {uint64_t{1}, uint64_t{12345}}) {
        ExpectPStarMatchesOracles(scale, un * scale << 40, n, target);
        ExpectPStarMatchesOracles(scale, un * scale * 2, n, target);
        ExpectPStarMatchesOracles(scale, un * scale, n, target);
      }
    }
  }
}

TEST(ApproxPStarTest, FixedPointStopMatchesFullSeriesOnRandomQ) {
  RandomEngine rng(44);
  for (int iter = 0; iter < 3000; ++iter) {
    const uint64_t n = 2 + rng.NextBelow(
                               uint64_t{1} << (1 + rng.NextBelow(40)));
    const int target = rng.NextBelow(2) == 0 ? 18 : 40;
    const U128 qden = RandomOfBitLength(
        BitLength(n) + 1 + static_cast<int>(rng.NextBelow(60)), rng);
    const U128 qnum = 1 + RandomBigBelow(qden / n, rng);  // n·q <= 1
    ExpectPStarMatchesOracles(qnum, qden, n, target);
  }
}

}  // namespace
}  // namespace dpss
