// Exact non-negative rational numbers.
//
// Two flavours:
//  * Rational64  — numerator/denominator in one word each; the form the
//    paper allows for query parameters (α, β) ("O(1)-word numerator and
//    denominator").
//  * BigRational — numerator/denominator as BigUInt; used internally for the
//    parameterized total weight W_S(α,β), item probabilities, and
//    acceptance coins.
//
// BigRational deliberately does not reduce to lowest terms: all values the
// library builds stay within a handful of words, and comparisons are exact
// cross-multiplications.
//
// FloorLog2 / CeilLog2 implement Claim 4.3: O(1)-time exact ⌊log2 x⌋ and
// ⌈log2 x⌉ for a positive rational, via word bit lengths plus one shifted
// comparison.

#ifndef DPSS_BIGINT_RATIONAL_H_
#define DPSS_BIGINT_RATIONAL_H_

#include <cstdint>
#include <string>

#include "bigint/big_uint.h"
#include "bigint/u128.h"
#include "util/check.h"

namespace dpss {

// A non-negative rational with one-word terms. den must be > 0.
struct Rational64 {
  uint64_t num = 0;
  uint64_t den = 1;

  constexpr Rational64() = default;
  constexpr Rational64(uint64_t n, uint64_t d) : num(n), den(d) {}

  bool IsZero() const { return num == 0; }
  double ToDouble() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
};

// The parameterized total W = α·total + β as the exact fraction num/den,
// with num = α.num·total·β.den + β.num·α.den and den = α.den·β.den.
inline void ParameterizedTotal(const BigUInt& total, Rational64 alpha,
                               Rational64 beta, BigUInt* num, BigUInt* den) {
  DPSS_CHECK(alpha.den > 0 && beta.den > 0);
  *num = BigUInt::MulU64(BigUInt::MulU64(total, alpha.num), beta.den) +
         BigUInt::FromU128(static_cast<unsigned __int128>(beta.num) *
                           alpha.den);
  *den = BigUInt::FromU128(static_cast<unsigned __int128>(alpha.den) *
                           beta.den);
}

// ParameterizedTotal for a two-word total, in u128 arithmetic: the same
// num and den. Returns false (leaving *num and *den untouched) when a
// product might need more than 128 bits or the sum wraps; callers then use
// ParameterizedTotal.
inline bool ParameterizedTotalU128(U128 total, Rational64 alpha,
                                   Rational64 beta, BigUInt* num,
                                   BigUInt* den) {
  DPSS_CHECK(alpha.den > 0 && beta.den > 0);
  if (!MulFits(total, alpha.num)) return false;
  const U128 scaled = total * alpha.num;
  if (!MulFits(scaled, beta.den)) return false;
  const U128 term1 = scaled * beta.den;
  const U128 sum = term1 + static_cast<U128>(beta.num) * alpha.den;
  if (sum < term1) return false;
  *num = BigUInt::FromU128(sum);
  *den = BigUInt::FromU128(static_cast<U128>(alpha.den) * beta.den);
  return true;
}

class BigRational {
 public:
  // Zero.
  BigRational() : num_(), den_(uint64_t{1}) {}

  BigRational(BigUInt num, BigUInt den)
      : num_(std::move(num)), den_(std::move(den)) {
    DPSS_CHECK(!den_.IsZero());
  }

  static BigRational FromU64(uint64_t num, uint64_t den) {
    return BigRational(BigUInt(num), BigUInt(den));
  }
  static BigRational FromRational64(Rational64 r) {
    return FromU64(r.num, r.den);
  }
  static BigRational FromUInt(BigUInt v) {
    return BigRational(std::move(v), BigUInt(uint64_t{1}));
  }

  const BigUInt& num() const { return num_; }
  const BigUInt& den() const { return den_; }

  bool IsZero() const { return num_.IsZero(); }

  // <0, 0, >0 as a < b, a == b, a > b. Exact.
  static int Compare(const BigRational& a, const BigRational& b) {
    return BigUInt::Compare(a.num_ * b.den_, b.num_ * a.den_);
  }

  friend bool operator==(const BigRational& a, const BigRational& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const BigRational& a, const BigRational& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigRational& a, const BigRational& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigRational& a, const BigRational& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigRational& a, const BigRational& b) {
    return Compare(a, b) >= 0;
  }

  // Comparison against 2^k (k may be negative). <0 if *this < 2^k, etc.
  int CompareWithPowerOfTwo(int k) const;

  // Comparison against 1.
  int CompareWithOne() const { return BigUInt::Compare(num_, den_); }

  static BigRational Add(const BigRational& a, const BigRational& b) {
    return BigRational(a.num_ * b.den_ + b.num_ * a.den_, a.den_ * b.den_);
  }
  static BigRational Mul(const BigRational& a, const BigRational& b) {
    return BigRational(a.num_ * b.num_, a.den_ * b.den_);
  }
  // Requires a >= b.
  static BigRational Sub(const BigRational& a, const BigRational& b) {
    return BigRational(a.num_ * b.den_ - b.num_ * a.den_, a.den_ * b.den_);
  }
  // Requires b > 0.
  static BigRational Div(const BigRational& a, const BigRational& b) {
    DPSS_CHECK(!b.IsZero());
    return BigRational(a.num_ * b.den_, a.den_ * b.num_);
  }

  // ⌊log2 x⌋ for x > 0 (Claim 4.3). May be negative.
  int FloorLog2() const;
  // ⌈log2 x⌉ for x > 0 (Claim 4.3). May be negative.
  int CeilLog2() const;

  // Closest double; exact exponent handling via bit lengths, so values far
  // outside the double range saturate to 0 / +inf. Diagnostics only.
  double ToDouble() const;

  // "num/den" in decimal. Debugging and tests.
  std::string ToString() const;

 private:
  BigUInt num_;
  BigUInt den_;
};

}  // namespace dpss

#endif  // DPSS_BIGINT_RATIONAL_H_
