// The Sampler interface contract, instantiated over every registered
// backend: construction through the registry, insert/erase/set-weight
// semantics, id safety across slot reuse, zero weights, statistical
// correctness of the sampling frequencies (z-scores per item plus a
// chi-square over the marginals), batched mutations, and the guarantee
// that no public-API misuse path aborts the process.
//
// This suite replaces the per-backend mirroring that used to live in
// baseline_test.cc (duplicated insert/erase/zero-weight checks per class);
// baseline_test.cc keeps only what is genuinely backend-specific.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampler.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace dpss {
namespace {

using testing_util::BernoulliZScore;
using testing_util::ExpectFrequencyGate;

// All contract queries run at (α, β) = (1, 0) — the SamplerSpec default
// for fixed-parameter backends — so one suite drives parameterized and
// fixed backends alike.
constexpr Rational64 kAlpha{1, 1};
constexpr Rational64 kBeta{0, 1};

class SamplerContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Sampler> Make(uint64_t seed = 42) const {
    SamplerSpec spec;
    spec.seed = seed;
    std::unique_ptr<Sampler> s = MakeSampler(GetParam(), spec);
    EXPECT_NE(s, nullptr);
    return s;
  }
};

TEST_P(SamplerContractTest, RegistryConstructsAndNames) {
  auto s = Make();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), GetParam());
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(MakeSampler("no-such-backend"), nullptr);
}

TEST_P(SamplerContractTest, InsertEraseSetWeightSemantics) {
  auto s = Make();
  const auto a = s->Insert(10);
  const auto b = s->Insert(90);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(s->TotalWeight(), BigUInt(uint64_t{100}));
  EXPECT_TRUE(s->Contains(*a));
  ASSERT_TRUE(s->GetWeight(*a).ok());
  EXPECT_EQ(s->GetWeight(*a)->mult, 10u);

  // In-place update adjusts the total and keeps the id valid.
  ASSERT_TRUE(s->SetWeight(*b, 45).ok());
  EXPECT_EQ(s->TotalWeight(), BigUInt(uint64_t{55}));
  EXPECT_TRUE(s->Contains(*b));
  EXPECT_EQ(s->GetWeight(*b)->mult, 45u);

  ASSERT_TRUE(s->Erase(*a).ok());
  EXPECT_EQ(s->size(), 1u);
  EXPECT_EQ(s->TotalWeight(), BigUInt(uint64_t{45}));
  EXPECT_FALSE(s->Contains(*a));
}

TEST_P(SamplerContractTest, MisuseIsRecoverableNotFatal) {
  auto s = Make();
  const auto a = s->Insert(7);
  ASSERT_TRUE(a.ok());

  // Ids that were never issued.
  EXPECT_EQ(s->Erase(*a + 12345).code(), StatusCode::kInvalidId);
  EXPECT_EQ(s->SetWeight(*a + 12345, 1).code(), StatusCode::kInvalidId);
  EXPECT_EQ(s->GetWeight(*a + 12345).status().code(),
            StatusCode::kInvalidId);

  // Double erase.
  ASSERT_TRUE(s->Erase(*a).ok());
  EXPECT_EQ(s->Erase(*a).code(), StatusCode::kInvalidId);

  // Malformed query parameters.
  std::vector<ItemId> out;
  EXPECT_EQ(s->SampleInto({1, 0}, kBeta, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s->SampleInto(kAlpha, kBeta, nullptr).code(),
            StatusCode::kInvalidArgument);

  // The sampler is still fully usable afterwards.
  const auto b = s->Insert(3);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(s->SampleInto(kAlpha, kBeta, &out).ok());
  EXPECT_TRUE(s->CheckInvariants().ok());
}

TEST_P(SamplerContractTest, StaleIdsNeverAliasReusedSlots) {
  auto s = Make();
  const auto a = s->Insert(11);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(s->Erase(*a).ok());
  // The freed slot is reused; the stale id must stay invalid regardless.
  const auto b = s->Insert(22);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SlotIndexOf(*b), SlotIndexOf(*a)) << "expected slot reuse";
  EXPECT_NE(*b, *a);
  EXPECT_FALSE(s->Contains(*a));
  EXPECT_TRUE(s->Contains(*b));
  EXPECT_EQ(s->Erase(*a).code(), StatusCode::kInvalidId);
  EXPECT_EQ(s->GetWeight(*a).status().code(), StatusCode::kInvalidId);
  EXPECT_EQ(s->GetWeight(*b)->mult, 22u);

  // Erase-reinsert cycles keep generating distinct ids for one slot.
  ItemId prev = *b;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s->Erase(prev).ok());
    const auto fresh = s->Insert(5);
    ASSERT_TRUE(fresh.ok());
    EXPECT_NE(*fresh, prev);
    EXPECT_FALSE(s->Contains(prev));
    prev = *fresh;
  }
}

TEST_P(SamplerContractTest, ZeroWeightItemsAreParkedNotSampled) {
  auto s = Make();
  const auto zero = s->Insert(0);
  const auto live = s->Insert(50);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(s->size(), 2u);  // parked items count toward size
  EXPECT_EQ(s->TotalWeight(), BigUInt(uint64_t{50}));

  std::vector<ItemId> out;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(s->SampleInto(kAlpha, kBeta, &out).ok());
    for (const ItemId id : out) EXPECT_NE(id, *zero);
  }

  // Revival via SetWeight: with (α, β) = (1, 0) and equal weights, the
  // revived item must show up about half the time.
  ASSERT_TRUE(s->SetWeight(*zero, 50).ok());
  RandomEngine rng(7);
  uint64_t hits = 0;
  const uint64_t trials = 4000;
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(s->SampleInto(kAlpha, kBeta, rng, &out).ok());
    for (const ItemId id : out) hits += id == *zero;
  }
  EXPECT_LE(std::abs(BernoulliZScore(hits, trials, 0.5)), 4.5);

  // Parking again via SetWeight(., 0).
  ASSERT_TRUE(s->SetWeight(*zero, 0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s->SampleInto(kAlpha, kBeta, &out).ok());
    for (const ItemId id : out) EXPECT_NE(id, *zero);
  }
  EXPECT_TRUE(s->CheckInvariants().ok());
}

// Statistical contract: under (α, β) = (1, 0) every item's inclusion
// probability is min{w/Σw, 1}. The shared frequency gate
// (tests/statistical.h) applies per-item z-scores (biased marginals) plus
// a chi-square over the hit counts (collectively-off frequencies).
TEST_P(SamplerContractTest, SamplingFrequenciesMatchExactMarginals) {
  auto s = Make(1234);
  const std::vector<uint64_t> weights = {1, 10, 100, 1000, 0, 500, 2048};
  std::vector<ItemId> ids;
  ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());
  const double total = 3659.0;

  RandomEngine rng(77);
  const uint64_t trials = 60000;
  std::vector<uint64_t> hits(weights.size(), 0);
  std::vector<ItemId> out;
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(s->SampleInto(kAlpha, kBeta, rng, &out).ok());
    for (const ItemId id : out) {
      for (size_t i = 0; i < ids.size(); ++i) hits[i] += id == ids[i];
    }
  }
  std::vector<double> probs(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    probs[i] = static_cast<double>(weights[i]) / total;
  }
  ExpectFrequencyGate(hits, trials, probs, 4.5, GetParam());
}

TEST_P(SamplerContractTest, BatchedMutationsMatchSingles) {
  auto batched = Make(5);
  auto singles = Make(5);

  // InsertBatch == loop of Insert.
  std::vector<uint64_t> weights;
  RandomEngine wgen(9);
  for (int i = 0; i < 200; ++i) weights.push_back(wgen.NextBelow(1 << 12));
  std::vector<ItemId> batch_ids, single_ids;
  ASSERT_TRUE(batched->InsertBatch(weights, &batch_ids).ok());
  for (const uint64_t w : weights) {
    single_ids.push_back(*singles->Insert(w));
  }
  ASSERT_EQ(batch_ids.size(), weights.size());
  EXPECT_EQ(batch_ids, single_ids);
  EXPECT_EQ(batched->TotalWeight(), singles->TotalWeight());

  // ApplyBatch of mixed ops == the same ops one by one.
  std::vector<Op> ops;
  for (int i = 0; i < 50; ++i) {
    ops.push_back(Op::Insert(uint64_t{100} + i));
    ops.push_back(Op::SetWeight(batch_ids[i], 7 * i));
    ops.push_back(Op::Erase(batch_ids[100 + i]));
  }
  std::vector<ItemId> batch_new, single_new;
  ASSERT_TRUE(batched->ApplyBatch(ops, &batch_new).ok());
  for (int i = 0; i < 50; ++i) {
    single_new.push_back(*singles->Insert(100 + i));
    ASSERT_TRUE(singles->SetWeight(single_ids[i], 7 * i).ok());
    ASSERT_TRUE(singles->Erase(single_ids[100 + i]).ok());
  }
  EXPECT_EQ(batch_new, single_new);
  EXPECT_EQ(batched->size(), singles->size());
  EXPECT_EQ(batched->TotalWeight(), singles->TotalWeight());
  EXPECT_TRUE(batched->CheckInvariants().ok());

  // A failing op stops the batch, reports the error, and leaves the
  // sampler consistent: earlier ops applied, later ops not.
  const uint64_t size_before = batched->size();
  const BigUInt total_before = batched->TotalWeight();
  const std::vector<Op> bad = {
      Op::Insert(uint64_t{3}),
      Op::Erase(ItemId{0xdeadbeef} << 20),  // never issued
      Op::Insert(uint64_t{5}),
  };
  std::vector<ItemId> bad_ids;
  EXPECT_EQ(batched->ApplyBatch(bad, &bad_ids).code(),
            StatusCode::kInvalidId);
  EXPECT_EQ(bad_ids.size(), 1u);  // first insert landed
  EXPECT_EQ(batched->size(), size_before + 1);
  EXPECT_EQ(batched->TotalWeight(), total_before + BigUInt(uint64_t{3}));
  EXPECT_TRUE(batched->CheckInvariants().ok());
}

TEST_P(SamplerContractTest, CapabilityGatedPathsFailSoftly) {
  auto s = Make();
  const Sampler::Capabilities caps = s->capabilities();
  ASSERT_TRUE(s->Insert(12).ok());

  std::vector<ItemId> out;
  const Status other_params = s->SampleInto({3, 5}, {7, 2}, &out);
  if (caps.parameterized) {
    EXPECT_TRUE(other_params.ok());
  } else {
    EXPECT_EQ(other_params.code(), StatusCode::kUnsupported);
  }

  // A float weight far beyond uint64.
  const auto big = s->InsertWeight(Weight(3, 200));
  if (caps.float_weights) {
    ASSERT_TRUE(big.ok());
    EXPECT_TRUE(s->Erase(*big).ok());
  } else {
    EXPECT_EQ(big.status().code(), StatusCode::kWeightOverflow);
  }
  // A weight no backend can hold (beyond the level-1 universe).
  EXPECT_EQ(s->InsertWeight(Weight(~uint64_t{0}, 1u << 30)).status().code(),
            StatusCode::kWeightOverflow);

  std::string bytes;
  const Status ser = s->Serialize(&bytes);
  if (caps.snapshots) {
    EXPECT_TRUE(ser.ok());
    EXPECT_TRUE(s->Restore(bytes).ok());
    EXPECT_EQ(s->Restore("garbage").code(), StatusCode::kBadSnapshot);
    EXPECT_EQ(s->size(), 1u);  // failed restore leaves the state alone
  } else {
    EXPECT_EQ(ser.code(), StatusCode::kUnsupported);
    EXPECT_EQ(s->Restore(bytes).code(), StatusCode::kUnsupported);
  }

  const auto mu = s->ExpectedSampleSize(kAlpha, kBeta);
  if (caps.expected_size) {
    ASSERT_TRUE(mu.ok());
    EXPECT_NEAR(*mu, 1.0, 1e-9);  // single item, (α, β) = (1, 0)
  } else {
    EXPECT_EQ(mu.status().code(), StatusCode::kUnsupported);
  }

  EXPECT_FALSE(s->DebugString().empty());
  EXPECT_GT(s->ApproxMemoryBytes(), 0u);
}

// The optional-API sweep: every method gated by a Capabilities flag must
// either work (flag set) or return kUnsupported (flag clear) — never
// garbage results, never a crash. New optional methods must be added to
// this sweep alongside their flag.
TEST_P(SamplerContractTest, OptionalApisHonorCapabilityFlags) {
  auto s = Make(21);
  const Sampler::Capabilities caps = s->capabilities();
  // Only the sharded wrapper's own-engine query may race with itself.
  EXPECT_EQ(caps.concurrent_queries, GetParam().rfind("sharded", 0) == 0);
  // The persistence rule: an arena image is one more native snapshot
  // format, and only the three fixed-(α, β) comparators have none.
  if (caps.arena_image) EXPECT_TRUE(caps.snapshots);
  const bool comparator = GetParam() == "rebuild" ||
                          GetParam() == "bucket_jump" || GetParam() == "odss";
  EXPECT_EQ(caps.snapshots, !comparator);
  std::vector<ItemId> ids;
  const std::vector<uint64_t> seed_weights = {40, 12, 28};
  ASSERT_TRUE(s->InsertBatch(seed_weights, &ids).ok());
  const BigUInt total_before = s->TotalWeight();

  // Decay: flag clear => kUnsupported and untouched totals; flag set =>
  // weights scale down (floor semantics) and a no-op factor is free.
  const Status dec = s->Decay({1, 2});
  if (caps.decay) {
    ASSERT_TRUE(dec.ok()) << dec.message();
    EXPECT_EQ(s->GetWeight(ids[0])->mult, 20u);
    EXPECT_EQ(s->GetWeight(ids[1])->mult, 6u);
    EXPECT_TRUE(s->Decay({1, 1}).ok());  // identity factor: always legal
    // Malformed factors are rejected without touching state.
    EXPECT_EQ(s->Decay({0, 3}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s->Decay({3, 2}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s->Decay({1, 0}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s->GetWeight(ids[2])->mult, 14u);
  } else {
    EXPECT_EQ(dec.code(), StatusCode::kUnsupported);
    EXPECT_EQ(s->TotalWeight(), total_before);
  }

  // SampleDistinct: flag clear => kUnsupported; flag set => exactly
  // min(k, live) distinct live ids, and misuse stays recoverable.
  std::vector<ItemId> out;
  const Status sd = s->SampleDistinct(2, &out);
  if (caps.sample_distinct) {
    ASSERT_TRUE(sd.ok()) << sd.message();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[0], out[1]);
    for (const ItemId id : out) EXPECT_TRUE(s->Contains(id));
    ASSERT_TRUE(s->SampleDistinct(50, &out).ok());  // k > live: all items
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(s->SampleDistinct(1, nullptr).code(),
              StatusCode::kInvalidArgument);
  } else {
    EXPECT_EQ(sd.code(), StatusCode::kUnsupported);
  }

  // TopK / ItemsAbove share the top_k flag. Whether or not the decay
  // branch ran, the weight ordering is ids[0] > ids[2] > ids[1].
  const Status tk = s->TopK(2, &out);
  if (caps.top_k) {
    ASSERT_TRUE(tk.ok()) << tk.message();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], ids[0]);
    EXPECT_EQ(out[1], ids[2]);
    ASSERT_TRUE(s->TopK(100, &out).ok());  // k > live: everything, ranked
    EXPECT_EQ(out.size(), 3u);
    // Threshold just above the lightest item keeps the heavier two.
    const Weight mid = *s->GetWeight(ids[1]);
    ASSERT_TRUE(s->ItemsAbove(Weight{mid.mult + 1, mid.exp}, &out).ok());
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(s->TopK(1, nullptr).code(), StatusCode::kInvalidArgument);
  } else {
    EXPECT_EQ(tk.code(), StatusCode::kUnsupported);
    EXPECT_EQ(s->ItemsAbove(Weight{1, 0}, &out).code(),
              StatusCode::kUnsupported);
  }

  // The sampler is still fully usable after the sweep.
  EXPECT_TRUE(s->Insert(5).ok());
  EXPECT_TRUE(s->CheckInvariants().ok());
}

// The explicit-denominator query: on a parameterized backend SampleInto
// is SampleIntoW at W = α·Σw + β, so equal engine states give equal
// outputs — also under a pending decay, whose rescaling the W entry owns.
// The fixed-(α, β) backends and the sharded wrapper answer kUnsupported.
TEST_P(SamplerContractTest, SampleIntoWIsTheParameterizedQuery) {
  auto s = Make(8);
  std::vector<uint64_t> weights;
  for (uint64_t i = 1; i <= 40; ++i) weights.push_back(2 * i * i);
  ASSERT_TRUE(s->InsertBatch(weights, nullptr).ok());
  const Rational64 alpha{1, 4};
  const Rational64 beta{9, 2};
  const bool sharded = std::string(GetParam()).rfind("sharded", 0) == 0;
  std::vector<ItemId> via_w, via_ab;
  RandomEngine rng_w(5), rng_ab(5);
  BigUInt wnum, wden;
  ParameterizedTotal(s->TotalWeight(), alpha, beta, &wnum, &wden);
  const Status st = s->SampleIntoW(wnum, wden, rng_w, &via_w);
  if (!s->capabilities().parameterized || sharded) {
    EXPECT_EQ(st.code(), StatusCode::kUnsupported);
    return;
  }
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(s->SampleIntoW(wnum, BigUInt(), rng_w, &via_w).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s->SampleIntoW(wnum, wden, rng_w, nullptr).code(),
            StatusCode::kInvalidArgument);

  uint64_t sampled = 0;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      if (!s->capabilities().decay) break;
      ASSERT_TRUE(s->Decay({1, 2}).ok());  // even weights: no flooring
      ParameterizedTotal(s->TotalWeight(), alpha, beta, &wnum, &wden);
    }
    rng_w.Seed(round + 11);
    rng_ab.Seed(round + 11);
    for (int q = 0; q < 200; ++q) {
      ASSERT_TRUE(s->SampleIntoW(wnum, wden, rng_w, &via_w).ok());
      ASSERT_TRUE(s->SampleInto(alpha, beta, rng_ab, &via_ab).ok());
      ASSERT_EQ(via_w, via_ab) << "round " << round << " query " << q;
      sampled += via_w.size();
    }
  }
  EXPECT_GT(sampled, 200u);
}

// W(α, β) = 0 (α = β = 0): every non-zero-weight item has probability
// min{w/0, 1} = 1 and must be returned; parked items stay out. Runs the
// fixed-parameter backends with the spec pinned to (0, 0).
TEST_P(SamplerContractTest, WZeroSelectsEveryNonZeroItem) {
  SamplerSpec spec;
  spec.seed = 3;
  spec.fixed_alpha = {0, 1};
  spec.fixed_beta = {0, 1};
  auto s = MakeSampler(GetParam(), spec);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->Insert(5).ok());
  ASSERT_TRUE(s->Insert(0).ok());
  ASSERT_TRUE(s->Insert(9).ok());
  std::vector<ItemId> out;
  ASSERT_TRUE(s->SampleInto({0, 1}, {0, 1}, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

// Deterministic churn through the interface: every backend survives a
// mixed op sequence with its bookkeeping (size, Σw, Contains) agreeing
// with a reference model.
TEST_P(SamplerContractTest, ChurnKeepsBookkeepingExact) {
  auto s = Make(99);
  RandomEngine rng(17);
  std::vector<ItemId> live;
  std::vector<uint64_t> live_w;
  unsigned __int128 total = 0;
  for (int step = 0; step < 600; ++step) {
    const uint64_t op = rng.NextBelow(10);
    if (op < 5 || live.empty()) {
      const uint64_t w = rng.NextBelow(1 << 10);
      const auto id = s->Insert(w);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
      live_w.push_back(w);
      total += w;
    } else if (op < 8) {
      const size_t i = rng.NextBelow(live.size());
      ASSERT_TRUE(s->Erase(live[i]).ok());
      total -= live_w[i];
      live[i] = live.back();
      live_w[i] = live_w.back();
      live.pop_back();
      live_w.pop_back();
    } else {
      const size_t i = rng.NextBelow(live.size());
      const uint64_t w = rng.NextBelow(1 << 10);
      ASSERT_TRUE(s->SetWeight(live[i], w).ok());
      total -= live_w[i];
      total += w;
      live_w[i] = w;
    }
  }
  EXPECT_EQ(s->size(), live.size());
  EXPECT_EQ(s->TotalWeight(), BigUInt::FromU128(total));
  for (const ItemId id : live) EXPECT_TRUE(s->Contains(id));
  EXPECT_TRUE(s->CheckInvariants().ok());
}

// Restore-into-non-empty audit (every backend with `snapshots`; the
// in-memory comparators skip): Restore must *replace* the state — slots,
// generations, free-list order — not merge into it. The regression this
// pins: a restore that keeps the destination's old slots or generations
// lets a pre-restore id alias whatever later reuses its slot.
TEST_P(SamplerContractTest, RestoreReplacesStateCompletely) {
  if (!Make()->capabilities().snapshots) GTEST_SKIP();

  // Source: three items, one erased so the snapshot carries a bumped
  // generation and a non-trivial free list.
  auto src = Make(31);
  const auto a = src->Insert(10);
  const auto b = src->Insert(20);
  const auto c = src->Insert(30);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(src->Erase(*b).ok());
  std::string bytes;
  ASSERT_TRUE(src->Serialize(&bytes).ok());

  // Destination: *more* items than the snapshot, all still live, plus an
  // extra erase/insert cycle so its generations diverge from the source's.
  auto dst = Make(32);
  std::vector<ItemId> dst_ids;
  for (int i = 0; i < 6; ++i) {
    const auto id = dst->Insert(100 + i);
    ASSERT_TRUE(id.ok());
    dst_ids.push_back(*id);
  }
  ASSERT_TRUE(dst->Erase(dst_ids[0]).ok());
  dst_ids[0] = *dst->Insert(7);  // bumps the slot's generation past 0

  ASSERT_TRUE(dst->Restore(bytes).ok());

  // The destination now *is* the source state.
  EXPECT_EQ(dst->size(), src->size());
  EXPECT_EQ(dst->TotalWeight(), src->TotalWeight());
  EXPECT_TRUE(dst->Contains(*a));
  EXPECT_TRUE(dst->Contains(*c));
  EXPECT_FALSE(dst->Contains(*b));  // erased before the snapshot: stays dead
  EXPECT_EQ(dst->GetWeight(*a)->mult, 10u);
  EXPECT_EQ(dst->GetWeight(*c)->mult, 30u);

  // Pre-restore ids beyond the snapshot's slot table are gone, and the
  // generation-diverged slot must not alias (its pre-restore generation
  // exceeded the snapshot's). Ids are instance-local tokens, so a dst id
  // whose numeric value coincides with a live snapshot id legitimately
  // stays valid — those are skipped; every other pre-restore id must die.
  int checked = 0;
  for (const ItemId id : dst_ids) {
    if (src->Contains(id)) continue;
    ++checked;
    EXPECT_FALSE(dst->Contains(id)) << "pre-restore id survived Restore";
    EXPECT_EQ(dst->Erase(id).code(), StatusCode::kInvalidId);
  }
  EXPECT_GE(checked, 3) << "test design: too few non-colliding ids";

  // Post-restore inserts behave exactly like post-serialize inserts on the
  // source: same freed slot, same (bumped) generation => same id.
  const auto src_next = src->Insert(55);
  const auto dst_next = dst->Insert(55);
  ASSERT_TRUE(src_next.ok() && dst_next.ok());
  EXPECT_EQ(*dst_next, *src_next);
  EXPECT_EQ(SlotIndexOf(*dst_next), SlotIndexOf(*b)) << "expected slot reuse";
  EXPECT_NE(*dst_next, *b);
  EXPECT_TRUE(dst->CheckInvariants().ok());
}

// The contract is also the thread-safety wrapper's conformance gate: every
// parameterized backend must behave identically behind "sharded<K>:<name>"
// (concurrent/sharded_sampler.h) for both a single shard and a sharded
// configuration. The fixed-(α, β) backends cannot be sharded (rejected at
// construction, see spec_validation_test.cc). "sharded:halt" additionally
// exercises the plain grammar that takes the shard count from
// SamplerSpec::num_shards.
std::vector<std::string> ContractBackends() {
  std::vector<std::string> names = RegisteredSamplerNames();
  for (const std::string& base : RegisteredSamplerNames()) {
    if (!MakeSampler(base)->capabilities().parameterized) continue;
    names.push_back("sharded1:" + base);
    names.push_back("sharded8:" + base);
  }
  names.push_back("sharded:halt");
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SamplerContractTest,
    ::testing::ValuesIn(ContractBackends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return testing_util::GTestNameFromBackend(info.param);
    });

}  // namespace
}  // namespace dpss
