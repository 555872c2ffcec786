// Block-RNG layer for the batched query hot path.
//
// The query walk consumes randomness one short draw at a time (16-bit
// first-rung uniforms, bitlen(mult)-bit accept draws, rejection draws for
// NextBelow). Two per-draw overheads dominate once the arithmetic runs on
// the u128 fast path:
//
//   1. stepping the generator state word by word, and
//   2. recomputing the certified (1-p)^m first-rung enclosure for every
//      Bernoulli-power coin — a deterministic fixed-point computation whose
//      operands repeat heavily within a query (the B-Geo block coin reuses
//      one (qnum, pden, b) triple for every jump through a bucket, and the
//      offset/T-Geo coins cycle through a small set of exponents).
//
// This layer amortizes both without touching the bit stream:
//
// Consumption-order contract. RandomEngine::PrefetchWords(n) bulk-runs the
// recurrence into a FIFO inside the engine that NextWord drains in
// generation order, so the sequence of served words — and therefore every
// sampling decision — is identical for any pattern of prefetch calls,
// including none. Batching is a pure amortization and can never perturb
// reproducibility; the fastpath-equivalence harness drives a prefetching
// and a non-prefetching query side by side from one seed and asserts equal
// outputs. The constants below are the prefetch block sizes the HALT query
// path uses (capped by RandomEngine::kBufferWords).
//
// Enclosure memo. CachedApproxPowSmall memoizes ApproxPowSmall at the fixed
// first-rung precision in two small thread-local direct-mapped tables: the
// full enclosure keyed on (num, den, m) — hit by the repeated B-Geo block
// coin — and the squares chain (num/den)^(2^k) keyed on (num, den, f) — hit
// by the offset coins whose random exponent m varies per draw but whose
// working precision f only depends on bitlen(m), leaving just popcount(m)
// accumulation multiplies per coin. The enclosure computation consumes
// no random bits and is a pure function of its operands, so serving a
// cached copy is invisible to both the bit stream and the sampling
// distribution — it returns bit-for-bit the same SmallInterval the direct
// call would (see the ApproxPowSmall* decomposition in random/approx.h).
// A chain miss (every mutation changes W and with it the operands) costs
// one ShlDivFloor division plus the squarings the exponent needs.

#ifndef DPSS_RANDOM_BLOCK_RNG_H_
#define DPSS_RANDOM_BLOCK_RNG_H_

#include <cstdint>

#include "bigint/u128.h"
#include "random/approx.h"

namespace dpss {

// Words prefetched once per query (SampleInto) and per candidate bucket
// (ExtractItems). One extracted item costs ~4-6 words (block coin + offset
// + accept draw), so a bucket block covers several items per refill.
inline constexpr int kQueryPrefetchWords = 64;
inline constexpr int kBucketPrefetchWords = 32;

// The fixed precision of the lazy Bernoulli framework's first rung
// (kFirstRungPrec + 2 in random/bernoulli.cc; the memo is keyed on operands
// only because every fast-path call uses this one target).
inline constexpr int kPowFirstRungTargetBits = 18;

// ApproxPowSmall(num, den, m, kPowFirstRungTargetBits) through a
// thread-local memo. Bit-for-bit identical to the direct call.
SmallInterval CachedApproxPowSmall(U128 num, U128 den, uint64_t m);

// Drops every memoized enclosure on this thread (tests; also useful to
// re-measure cold-cache behaviour in benchmarks).
void ClearPowEnclosureCache();

}  // namespace dpss

#endif  // DPSS_RANDOM_BLOCK_RNG_H_
