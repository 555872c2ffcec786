#include "random/approx.h"

#include <cmath>

#include "util/bits.h"

namespace dpss {

namespace {

// floor((a * b) / 2^f)
BigUInt MulFloor(const BigUInt& a, const BigUInt& b, int f) {
  return (a * b) >> f;
}

// ceil((a * b) / 2^f)
BigUInt MulCeil(const BigUInt& a, const BigUInt& b, int f) {
  BigUInt p = a * b;
  BigUInt q = p >> f;
  if (BigUInt::Compare(q << f, p) != 0) q.Increment();
  return q;
}

// floor(num * 2^f / den)
BigUInt DivFloor(const BigUInt& num, const BigUInt& den, int f) {
  return BigUInt::Div(num << f, den);
}

// ceil(num * 2^f / den)
BigUInt DivCeil(const BigUInt& num, const BigUInt& den, int f) {
  auto [q, r] = BigUInt::DivMod(num << f, den);
  if (!r.IsZero()) q.Increment();
  return q;
}

}  // namespace

double FixedInterval::WidthToDouble() const {
  return std::ldexp(BigUInt::Sub(hi, lo).ToDouble(), -frac_bits);
}

double FixedInterval::MidToDouble() const {
  return std::ldexp((lo + hi).ToDouble(), -(frac_bits + 1));
}

FixedInterval ApproxRational(const BigUInt& num, const BigUInt& den,
                             int target_bits) {
  DPSS_CHECK(!den.IsZero() && target_bits >= 1);
  FixedInterval out;
  out.frac_bits = target_bits;
  out.lo = DivFloor(num, den, target_bits);
  out.hi = DivCeil(num, den, target_bits);
  return out;
}

FixedInterval ApproxPow(const BigUInt& num, const BigUInt& den, uint64_t m,
                        int target_bits) {
  DPSS_CHECK(BigUInt::Compare(num, den) <= 0 && !den.IsZero());
  DPSS_CHECK(target_bits >= 1);
  FixedInterval out;
  if (m == 0 || BigUInt::Compare(num, den) == 0) {
    // Exactly 1.
    out.frac_bits = target_bits;
    out.lo = BigUInt::PowerOfTwo(target_bits);
    out.hi = out.lo;
    return out;
  }
  if (num.IsZero()) {
    out.frac_bits = target_bits;
    out.lo = BigUInt();
    out.hi = out.lo;
    return out;
  }

  // Right-to-left binary exponentiation with outward rounding: maintain the
  // squares chain s = q^(2^bit) and fold it into the result on set bits of
  // m. The chain depends only on the base and f — never on m — which is what
  // lets the word-sized mirror memoize it per (num, den, f) and serve coins
  // with arbitrary exponents from it (random/block_rng.cc); this BigUInt
  // version must therefore perform the exact same operation sequence. Each
  // of the <= 2*bitlen(m) interval multiplications adds at most ~2 ulp of
  // width to values <= 1, and the base enclosure contributes 1 ulp, so
  // working precision target + log2(ops) + 4 certifies the target width.
  const int ops = 2 * BitLength(m) + 2;
  const int f = target_bits + CeilLog2(static_cast<uint64_t>(ops)) + 4;
  const BigUInt one = BigUInt::PowerOfTwo(f);

  BigUInt s_lo = DivFloor(num, den, f);
  BigUInt s_hi = DivCeil(num, den, f);
  BigUInt res_lo, res_hi;
  bool started = false;

  const int bits = BitLength(m);
  for (int bit = 0; bit < bits; ++bit) {
    if (bit > 0) {
      s_lo = MulFloor(s_lo, s_lo, f);
      s_hi = MulCeil(s_hi, s_hi, f);
      // The true value is <= 1; capping preserves the enclosure while
      // controlling growth.
      if (BigUInt::Compare(s_hi, one) > 0) s_hi = one;
    }
    if ((m >> bit) & 1) {
      if (started) {
        res_lo = MulFloor(res_lo, s_lo, f);
        res_hi = MulCeil(res_hi, s_hi, f);
        if (BigUInt::Compare(res_hi, one) > 0) res_hi = one;
      } else {
        res_lo = s_lo;
        res_hi = s_hi;
        started = true;
      }
    }
  }

  out.frac_bits = f;
  out.lo = std::move(res_lo);
  out.hi = std::move(res_hi);
  return out;
}

FixedInterval ApproxPStar(const BigUInt& qnum, const BigUInt& qden, uint64_t n,
                          int target_bits) {
  DPSS_CHECK(!qnum.IsZero() && !qden.IsZero());
  DPSS_CHECK(n >= 1 && target_bits >= 1);
  // n*q <= 1 required (checked cheaply via cross multiplication).
  DPSS_CHECK(BigUInt::Compare(BigUInt::MulU64(qnum, n), qden) <= 0);

  FixedInterval out;
  if (n == 1) {
    // p* = 1 exactly.
    out.frac_bits = target_bits;
    out.lo = BigUInt::PowerOfTwo(target_bits);
    out.hi = out.lo;
    return out;
  }

  // p* = sum_{j>=1} t_j  with  t_1 = 1,
  //   t_{j+1} = t_j * (-q) (n-j) / (j+1),  |t_j| <= 2^{-(j-1)}.
  // Truncate after J = target_bits + 3 terms; the alternating tail is
  // bounded by |t_{J+1}| <= 2^-J.
  const uint64_t terms = static_cast<uint64_t>(target_bits) + 3;
  const int f = target_bits + CeilLog2(terms + 2) + 6;

  // Interval magnitude of the current term.
  BigUInt t_lo = BigUInt::PowerOfTwo(f);  // t_1 = 1
  BigUInt t_hi = t_lo;
  // Positive / negative partial sums (interval endpoints).
  BigUInt pos_lo = t_lo, pos_hi = t_hi;
  BigUInt neg_lo, neg_hi;  // zero

  // Steps j = 1 .. stop-1 add term j+1. The multiplier q·(n-j)/(j+1) is
  // below 1 (n·q <= 1), so once (t_lo, t_hi) reaches (0, 1) it stays there:
  // the floor of 1·multiplier is 0, plus the +1 of outward rounding. The
  // remaining steps then add 0 to the lo sums and 1 to the hi sum of their
  // sign, which is added in closed form (ApproxPStarSmall does the same, so
  // the two mirrors stay step for step).
  const uint64_t stop = terms < n ? terms : n;
  const BigUInt one_ulp(uint64_t{1});
  uint64_t j = 1;
  for (; j < stop; ++j) {
    if (t_lo.IsZero() && BigUInt::Compare(t_hi, one_ulp) == 0) break;
    // |t_{j+1}| = |t_j| * qnum*(n-j) / (qden*(j+1))
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
  }
  // Each remaining step j' in [j, stop) adds term j'+1, which is negative
  // for odd j'.
  const uint64_t neg_steps = stop / 2 - j / 2;
  neg_hi = neg_hi + BigUInt(neg_steps);
  pos_hi = pos_hi + BigUInt((stop - j) - neg_steps);

  // Tail bound: 2^{-(terms-1)} scaled to f fractional bits (only needed if
  // the series was truncated before n terms).
  BigUInt tail;
  if (terms < n) {
    const int tail_shift = f - static_cast<int>(terms) + 1;
    tail = tail_shift >= 0 ? BigUInt::PowerOfTwo(tail_shift)
                           : BigUInt(uint64_t{1});
  }

  // value in [pos_lo - neg_hi - tail, pos_hi - neg_lo + tail], clamped to
  // [0, 1] (p* is a probability).
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

FixedInterval ApproxHalfRecipPStar(const BigUInt& qnum, const BigUInt& qden,
                                   uint64_t n, int target_bits) {
  // 1/(2 p*) with p* in [1/2, 1]: an enclosure of p* of width w yields a
  // reciprocal enclosure of width <= 2w (since 2*p* >= 1), plus 2 ulp of
  // rounding.
  const FixedInterval ps = ApproxPStar(qnum, qden, n, target_bits + 3);
  const int f = ps.frac_bits;
  FixedInterval out;
  out.frac_bits = f;
  // 1/(2 p*) scaled by 2^f  =  2^(2f-1) / (p* * 2^f).
  DPSS_CHECK(!ps.lo.IsZero());  // p* >= 1/2 > 0 under the preconditions
  const BigUInt two_pow = BigUInt::PowerOfTwo(2 * f - 1);
  out.lo = BigUInt::Div(two_pow, ps.hi);
  auto [q, r] = BigUInt::DivMod(two_pow, ps.lo);
  if (!r.IsZero()) q.Increment();
  out.hi = std::move(q);
  const BigUInt one = BigUInt::PowerOfTwo(f);
  if (BigUInt::Compare(out.hi, one) > 0) out.hi = one;
  if (BigUInt::Compare(out.lo, out.hi) > 0) out.lo = out.hi;
  return out;
}

// ---------------------------------------------------------------------------
// Small-integer fast path: word-sized mirrors of the first enclosure rung.
// Every arithmetic step below computes the same integer as its BigUInt
// counterpart in ApproxPow / ApproxPStar, so the enclosures are identical.
// ---------------------------------------------------------------------------

void ApproxPowSmallBase(U128 num, U128 den, int f, uint64_t* base_lo,
                        uint64_t* base_hi) {
  DPSS_DCHECK(num != 0 && num < den && f >= 1 && f <= 60);
  bool exact = false;
  *base_lo = ShlDivFloor(num, den, f, &exact);
  *base_hi = *base_lo + (exact ? 0 : 1);
}

SmallInterval ApproxPowSmall(U128 num, U128 den, uint64_t m, int target_bits) {
  DPSS_DCHECK(num != 0 && num < den && m >= 2);
  const int f = ApproxPowSmallFracBits(m, target_bits);
  uint64_t base_lo, base_hi;
  ApproxPowSmallBase(num, den, f, &base_lo, &base_hi);
  return ApproxPowSmallFromBase(base_lo, base_hi, f, m);
}

SmallInterval ApproxPowSmallFromBase(uint64_t base_lo, uint64_t base_hi, int f,
                                     uint64_t m) {
  DPSS_DCHECK(m >= 2 && f >= 1 && f <= 60);
  // Right-to-left, mirroring ApproxPow step for step: the squares chain
  // s = base^(2^bit) is independent of m, so the memoized variant in
  // random/block_rng.cc can replay the accumulation against a cached chain
  // and land on exactly these integers.
  const uint64_t one = uint64_t{1} << f;
  uint64_t s_lo = base_lo;
  uint64_t s_hi = base_hi;
  uint64_t res_lo = 0;
  uint64_t res_hi = 0;
  bool started = false;

  const int bits = BitLength(m);
  for (int bit = 0; bit < bits; ++bit) {
    if (bit > 0) {
      s_lo = MulFloorSmall(s_lo, s_lo, f);
      s_hi = MulCeilSmall(s_hi, s_hi, f);
      if (s_hi > one) s_hi = one;
    }
    if ((m >> bit) & 1) {
      if (started) {
        res_lo = MulFloorSmall(res_lo, s_lo, f);
        res_hi = MulCeilSmall(res_hi, s_hi, f);
        if (res_hi > one) res_hi = one;
      } else {
        res_lo = s_lo;
        res_hi = s_hi;
        started = true;
      }
    }
  }

  SmallInterval out;
  out.frac_bits = f;
  out.lo = res_lo;
  out.hi = res_hi;
  return out;
}

bool ApproxPStarSmall(U128 qnum, U128 qden, uint64_t n, int target_bits,
                      SmallInterval* out) {
  DPSS_DCHECK(qnum != 0 && qden != 0 && n >= 2);
  // n·q <= 1, checked without forming the (possibly 129-bit) product.
  DPSS_DCHECK(qnum <= qden / n);
  const uint64_t terms = static_cast<uint64_t>(target_bits) + 3;
  const int f = target_bits + CeilLog2(terms + 2) + 6;
  DPSS_DCHECK(f >= 1 && f <= 60);

  // Term magnitudes stay <= 2^f + j; give them f+1 bits of headroom and
  // require the t·qnum·(n-j) and qden·(j+1) products to fit 128 bits.
  if ((f + 1) + BitLength(qnum) + BitLength(n) > 128) return false;
  if (BitLength(qden) + BitLength(terms + 1) > 128) return false;

  U128 t_lo = static_cast<U128>(1) << f;  // t_1 = 1
  U128 t_hi = t_lo;
  U128 pos_lo = t_lo, pos_hi = t_hi;
  U128 neg_lo = 0, neg_hi = 0;

  // Same steps as ApproxPStar, including the stop at the (0, 1) fixed
  // point and the closed-form remainder.
  const uint64_t stop = terms < n ? terms : n;
  uint64_t j = 1;
  for (; j < stop; ++j) {
    if (t_lo == 0 && t_hi == 1) break;
    const U128 mul_num = qnum * (n - j);
    const U128 mul_den = qden * (j + 1);
    const U128 p_lo = t_lo * mul_num;
    const U128 p_hi = t_hi * mul_num;
    if (((p_hi | mul_den) >> 64) == 0) {
      // p_lo <= p_hi: both dividends and the divisor fit one word.
      const uint64_t d = static_cast<uint64_t>(mul_den);
      t_lo = static_cast<uint64_t>(p_lo) / d;
      t_hi = static_cast<uint64_t>(p_hi) / d + 1;
    } else {
      t_lo = p_lo / mul_den;
      t_hi = p_hi / mul_den + 1;
    }
    if ((j + 1) % 2 == 0) {
      neg_lo += t_lo;
      neg_hi += t_hi;
    } else {
      pos_lo += t_lo;
      pos_hi += t_hi;
    }
  }
  const uint64_t neg_steps = stop / 2 - j / 2;
  neg_hi += neg_steps;
  pos_hi += (stop - j) - neg_steps;

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

}  // namespace dpss
