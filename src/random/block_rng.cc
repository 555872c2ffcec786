#include "random/block_rng.h"

namespace dpss {

namespace {

// Direct-mapped thread-local memo. 8192 slots x 64 bytes = 512 KiB of
// lazily-committed thread-local storage; a conflict miss just falls
// through to the real computation. The table is sized for the query walk's
// steady state, not a single query: every candidate bucket contributes one
// (num, den) pair whose offset coins draw m uniformly from the bucket's
// block size, and those triples recur across queries, so a table that
// holds the union converts the per-coin enclosure into a hash + one line.
struct alignas(64) PowCacheSlot {
  U128 num = 0;
  U128 den = 0;  // 0 marks an empty slot (ApproxPowSmall requires den > 0)
  uint64_t m = 0;
  SmallInterval enc;
};

constexpr int kPowCacheSlots = 8192;
thread_local PowCacheSlot t_pow_cache[kPowCacheSlots];

// Second level: the squares chain s_k = (num/den)^(2^k) at working
// precision f. A fresh enclosure costs one ShlDivFloor (a single division
// for word-sized operands; the bit loop only when num << f spills 128
// bits) plus ~2·bitlen(m) interval multiplications. Chains are rebuilt
// whenever W moves, and every mutation moves W, so on a workload that
// mutates between queries many lookups rebuild one; there the division's
// cost matters as much as the hit rate. The geometric samplers draw the
// exponent m uniformly per coin (the offset within a block), so the
// (num, den, m) level above misses constantly on the query walk. But the
// chain depends on m only through f = ApproxPowSmallFracBits(m, 18), which
// takes one value per bitlen(m) — so (num, den, f) repeats for every coin
// of a bucket, and a chain hit reduces the coin to popcount(m)
// accumulation multiplies. The accumulation below replays exactly the
// right-to-left loop of ApproxPowSmallFromBase against the cached chain,
// so the served enclosure is bit-identical to a fresh computation.
constexpr int kPowChainLevels = 64;

struct PowChainSlot {
  U128 num = 0;
  U128 den = 0;  // 0 marks an empty slot
  int32_t f = -1;
  int32_t built = 0;  // chain levels filled in sq_lo/sq_hi
  uint64_t sq_lo[kPowChainLevels];
  uint64_t sq_hi[kPowChainLevels];
};

constexpr int kPowChainSlots = 128;
thread_local PowChainSlot t_pow_chain_cache[kPowChainSlots];

inline uint64_t MixPow(U128 num, U128 den, uint64_t salt) {
  uint64_t h = static_cast<uint64_t>(num) ^
               (static_cast<uint64_t>(num >> 64) * 0x9e3779b97f4a7c15ULL);
  h ^= static_cast<uint64_t>(den) * 0xbf58476d1ce4e5b9ULL;
  h ^= (static_cast<uint64_t>(den >> 64) + salt) * 0x94d049bb133111ebULL;
  h ^= h >> 29;
  return h;
}

}  // namespace

SmallInterval CachedApproxPowSmall(U128 num, U128 den, uint64_t m) {
  PowCacheSlot& slot = t_pow_cache[MixPow(num, den, m) & (kPowCacheSlots - 1)];
  if (slot.den == den && slot.num == num && slot.m == m) return slot.enc;

  const int f = ApproxPowSmallFracBits(m, kPowFirstRungTargetBits);
  PowChainSlot& chain =
      t_pow_chain_cache[MixPow(num, den, static_cast<uint64_t>(f)) &
                        (kPowChainSlots - 1)];
  if (chain.den != den || chain.num != num || chain.f != f) {
    chain.num = num;
    chain.den = den;
    chain.f = f;
    chain.built = 1;
    ApproxPowSmallBase(num, den, f, &chain.sq_lo[0], &chain.sq_hi[0]);
  }

  const int bits = BitLength(m);
  const uint64_t one = uint64_t{1} << f;
  DPSS_DCHECK(bits <= kPowChainLevels);
  while (chain.built < bits) {
    const int k = chain.built;
    chain.sq_lo[k] = MulFloorSmall(chain.sq_lo[k - 1], chain.sq_lo[k - 1], f);
    const uint64_t hi =
        MulCeilSmall(chain.sq_hi[k - 1], chain.sq_hi[k - 1], f);
    chain.sq_hi[k] = hi > one ? one : hi;
    chain.built = k + 1;
  }

  // Fold set bits low-to-high — the same order, products and caps as
  // ApproxPowSmallFromBase, just with the squares read from the chain.
  uint64_t res_lo = 0, res_hi = 0;
  bool started = false;
  for (int bit = 0; bit < bits; ++bit) {
    if (((m >> bit) & 1) == 0) continue;
    if (started) {
      res_lo = MulFloorSmall(res_lo, chain.sq_lo[bit], f);
      const uint64_t hi = MulCeilSmall(res_hi, chain.sq_hi[bit], f);
      res_hi = hi > one ? one : hi;
    } else {
      res_lo = chain.sq_lo[bit];
      res_hi = chain.sq_hi[bit];
      started = true;
    }
  }

  slot.num = num;
  slot.den = den;
  slot.m = m;
  slot.enc.lo = res_lo;
  slot.enc.hi = res_hi;
  slot.enc.frac_bits = f;
  return slot.enc;
}

void ClearPowEnclosureCache() {
  for (auto& slot : t_pow_cache) slot = PowCacheSlot{};
  for (auto& slot : t_pow_chain_cache) slot = PowChainSlot{};
}

}  // namespace dpss
