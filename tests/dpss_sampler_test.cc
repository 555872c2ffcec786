// End-to-end tests for DpssSampler (the HALT structure): exact inclusion
// probabilities under diverse weights and query parameters, independence,
// dynamic update sequences mirrored against a reference, rebuild behaviour,
// and structural invariants.

#include "core/dpss_sampler.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "util/random.h"

namespace dpss {
namespace {

using testing_util::BernoulliZScore;

double ExactProb(Weight w, const BigUInt& wnum, const BigUInt& wden) {
  if (w.IsZero()) return 0.0;
  if (wnum.IsZero()) return 1.0;
  const double inv_w = BigRational(wden, wnum).ToDouble();
  const double p = static_cast<double>(w.mult) * inv_w *
                   std::exp2(static_cast<double>(w.exp));
  return p < 1.0 ? p : 1.0;
}

// Runs `trials` queries and z-tests each item's inclusion frequency against
// its exact probability.
void CheckFrequencies(DpssSampler& s, Rational64 alpha, Rational64 beta,
                      const std::vector<DpssSampler::ItemId>& ids,
                      uint64_t trials, uint64_t seed) {
  BigUInt wnum, wden;
  s.ComputeW(alpha, beta, &wnum, &wden);
  std::map<DpssSampler::ItemId, uint64_t> hits;
  for (auto id : ids) hits[id] = 0;
  RandomEngine rng(seed);
  for (uint64_t t = 0; t < trials; ++t) {
    for (auto id : s.Sample(alpha, beta, rng)) {
      auto it = hits.find(id);
      if (it != hits.end()) ++it->second;
    }
  }
  for (auto id : ids) {
    const double p = ExactProb(s.GetWeight(id), wnum, wden);
    const double z = BernoulliZScore(hits[id], trials, p);
    EXPECT_LE(std::abs(z), 4.75)
        << "item " << id << " w.mult=" << s.GetWeight(id).mult
        << " w.exp=" << s.GetWeight(id).exp << " p=" << p
        << " hits=" << hits[id] << "/" << trials;
  }
}

TEST(DpssSamplerTest, EmptySetReturnsEmpty) {
  DpssSampler s(1);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Sample({1, 1}, {0, 1}).empty());
  EXPECT_EQ(s.ExpectedSampleSize({1, 1}, {0, 1}), 0.0);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, SingleItemAlphaOneBetaZeroIsCertain) {
  DpssSampler s(2);
  const auto id = s.Insert(7);
  // W = Σw = 7, p = min(7/7, 1) = 1.
  for (int i = 0; i < 100; ++i) {
    const auto t = s.Sample({1, 1}, {0, 1});
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0], id);
  }
  s.CheckInvariants();
}

TEST(DpssSamplerTest, WZeroSelectsAllNonzeroItems) {
  DpssSampler s(3);
  const auto a = s.Insert(1);
  const auto b = s.Insert(1000);
  const auto z = s.Insert(0);
  const auto t = s.Sample({0, 1}, {0, 1});
  EXPECT_EQ(t.size(), 2u);
  bool has_a = false, has_b = false, has_z = false;
  for (auto id : t) {
    has_a |= id == a;
    has_b |= id == b;
    has_z |= id == z;
  }
  EXPECT_TRUE(has_a && has_b);
  EXPECT_FALSE(has_z);
}

TEST(DpssSamplerTest, ZeroWeightItemsAreNeverSampled) {
  DpssSampler s(4);
  std::vector<DpssSampler::ItemId> zeros;
  for (int i = 0; i < 10; ++i) zeros.push_back(s.Insert(0));
  s.Insert(5);
  for (int i = 0; i < 200; ++i) {
    for (auto id : s.Sample({1, 2}, {1, 7})) {
      for (auto zid : zeros) EXPECT_NE(id, zid);
    }
  }
  s.CheckInvariants();
}

TEST(DpssSamplerTest, HugeBetaMakesSamplesRare) {
  DpssSampler s(5);
  for (int i = 0; i < 50; ++i) s.Insert(1 + i);
  // β = 2^62: p_x ~ w/2^62, μ ~ 3e-16.
  uint64_t total = 0;
  for (int i = 0; i < 1000; ++i) {
    total += s.Sample({0, 1}, {uint64_t{1} << 62, 1}).size();
  }
  EXPECT_EQ(total, 0u);
}

TEST(DpssSamplerTest, FrequenciesSpreadWeights) {
  // Weights spanning many buckets; α = 1, β = 0 (classic w/Σw scaled).
  DpssSampler s(6);
  std::vector<DpssSampler::ItemId> ids;
  for (int e = 0; e <= 20; e += 2) {
    ids.push_back(s.Insert(uint64_t{1} << e));
    ids.push_back(s.Insert((uint64_t{1} << e) + (uint64_t{1} << (e / 2))));
  }
  CheckFrequencies(s, {1, 1}, {0, 1}, ids, 60000, 1001);
  s.CheckInvariants();
}

struct ParamCase {
  Rational64 alpha;
  Rational64 beta;
};

class DpssSamplerParamTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(DpssSamplerParamTest, FrequenciesAcrossParameters) {
  const ParamCase& pc = GetParam();
  DpssSampler s(7);
  RandomEngine wgen(99);
  std::vector<DpssSampler::ItemId> ids;
  // A mix: tiny, mid, huge, duplicate weights.
  for (int i = 0; i < 12; ++i) ids.push_back(s.Insert(1 + wgen.NextBelow(7)));
  for (int i = 0; i < 12; ++i) {
    ids.push_back(s.Insert(1000 + wgen.NextBelow(9000)));
  }
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.Insert(uint64_t{1} << (30 + i)));
  }
  for (int i = 0; i < 5; ++i) ids.push_back(s.Insert(4096));
  CheckFrequencies(s, pc.alpha, pc.beta, ids, 50000,
                   2000 + pc.alpha.num * 7 + pc.beta.num);
  s.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, DpssSamplerParamTest,
    ::testing::Values(ParamCase{{1, 1}, {0, 1}},          // w/Σw
                      ParamCase{{1, 1}, {1, 1}},          // w/(Σw+1)
                      ParamCase{{3, 2}, {1000000, 1}},    // mixed
                      ParamCase{{0, 1}, {1u << 20, 1}},   // fixed denominator
                      ParamCase{{0, 1}, {100, 1}},        // many certain items
                      ParamCase{{1, 1000000}, {0, 1}},    // α << 1: certain+
                      ParamCase{{7, 3}, {5, 9}},          // awkward rationals
                      ParamCase{{1000000007, 1}, {0, 1}}  // huge α: tiny p
                      ));

TEST(DpssSamplerTest, PowerOfTwoExponentWeights) {
  // The Theorem 1.2 "float" regime: weights 2^a with large exponents.
  DpssSampler s(8);
  std::vector<DpssSampler::ItemId> ids;
  for (uint32_t a : {0u, 5u, 17u, 80u, 81u, 120u, 200u}) {
    ids.push_back(s.InsertWeight(Weight(1, a)));
  }
  // α = 1, β = 0: the largest item dominates; p_largest >= 1/2.
  BigUInt wnum, wden;
  s.ComputeW({1, 1}, {0, 1}, &wnum, &wden);
  EXPECT_GE(ExactProb(Weight(1, 200), wnum, wden), 0.5);
  CheckFrequencies(s, {1, 1}, {0, 1}, ids, 60000, 3001);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, MaxWordWeights) {
  DpssSampler s(9);
  std::vector<DpssSampler::ItemId> ids;
  ids.push_back(s.Insert(~uint64_t{0}));          // 2^64 - 1
  ids.push_back(s.Insert(uint64_t{1} << 63));
  ids.push_back(s.Insert(1));
  CheckFrequencies(s, {1, 1}, {0, 1}, ids, 50000, 3501);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, MediumSetMeanSampleSize) {
  // n = 2000 items; checks E[|T|] = μ via the sample mean.
  std::vector<uint64_t> weights;
  RandomEngine wgen(5);
  for (int i = 0; i < 2000; ++i) weights.push_back(1 + wgen.NextBelow(1000));
  DpssSampler s(weights, 10);
  const Rational64 alpha{1, 10};
  const Rational64 beta{12345, 1};
  const double mu = s.ExpectedSampleSize(alpha, beta);
  ASSERT_GT(mu, 1.0);
  RandomEngine rng(11);
  const uint64_t trials = 30000;
  uint64_t total = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    total += s.Sample(alpha, beta, rng).size();
  }
  const double mean = static_cast<double>(total) / trials;
  // Var(|T|) <= μ; allow 4.75 sigma.
  const double sigma = std::sqrt(mu / trials);
  EXPECT_NEAR(mean, mu, 4.75 * sigma);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, PairwiseIndependenceSameBucket) {
  // Two equal-weight items land in the same bucket and are visited by the
  // same geometric jump chain; their inclusions must still be independent.
  DpssSampler s(12);
  const auto a = s.Insert(64);
  const auto b = s.Insert(65);
  for (int i = 0; i < 30; ++i) s.Insert(3);  // background
  const Rational64 alpha{1, 1};
  const Rational64 beta{0, 1};
  BigUInt wnum, wden;
  s.ComputeW(alpha, beta, &wnum, &wden);
  const double pa = ExactProb(s.GetWeight(a), wnum, wden);
  const double pb = ExactProb(s.GetWeight(b), wnum, wden);
  RandomEngine rng(13);
  const uint64_t trials = 120000;
  uint64_t joint = 0, hits_a = 0, hits_b = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    bool ia = false, ib = false;
    for (auto id : s.Sample(alpha, beta, rng)) {
      ia |= id == a;
      ib |= id == b;
    }
    hits_a += ia;
    hits_b += ib;
    joint += ia && ib;
  }
  EXPECT_LE(std::abs(BernoulliZScore(hits_a, trials, pa)), 4.75);
  EXPECT_LE(std::abs(BernoulliZScore(hits_b, trials, pb)), 4.75);
  EXPECT_LE(std::abs(BernoulliZScore(joint, trials, pa * pb)), 4.75);
}

TEST(DpssSamplerTest, DynamicSequenceKeepsInvariantsAndDistribution) {
  DpssSampler s(14);
  RandomEngine rng(15);
  std::vector<DpssSampler::ItemId> live;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 60 || live.empty()) {
      const uint64_t w = rng.NextBelow(10) == 0 ? 0 : 1 + rng.NextBelow(1u << 30);
      live.push_back(s.Insert(w));
    } else {
      const size_t idx = rng.NextBelow(live.size());
      s.Erase(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) s.CheckInvariants();
  }
  s.CheckInvariants();
  EXPECT_EQ(s.size(), live.size());
  // Distribution is still exact after heavy churn.
  std::vector<DpssSampler::ItemId> probe(live.begin(),
                                         live.begin() + std::min<size_t>(
                                                            live.size(), 25));
  CheckFrequencies(s, {2, 3}, {50, 1}, probe, 40000, 4001);
}

TEST(DpssSamplerTest, GrowShrinkTriggersRebuilds) {
  DpssSampler s(16);
  std::vector<DpssSampler::ItemId> ids;
  for (int i = 0; i < 3000; ++i) ids.push_back(s.Insert(1 + (i % 97)));
  EXPECT_GT(s.rebuild_count(), 0u);
  const uint64_t grown_rebuilds = s.rebuild_count();
  s.CheckInvariants();
  for (int i = 0; i < 2900; ++i) {
    s.Erase(ids[i]);
  }
  EXPECT_GT(s.rebuild_count(), grown_rebuilds);
  s.CheckInvariants();
  std::vector<DpssSampler::ItemId> rest(ids.begin() + 2900, ids.end());
  CheckFrequencies(s, {1, 1}, {0, 1}, rest, 40000, 5001);
}

TEST(DpssSamplerTest, EraseAndReinsertReusesSlotsWithFreshIds) {
  DpssSampler s(17);
  const auto a = s.Insert(10);
  s.Erase(a);
  EXPECT_FALSE(s.Contains(a));
  const auto b = s.Insert(20);
  // The slot is reused, but the generation bump makes the id distinct, so
  // the stale id cannot alias the new item.
  EXPECT_EQ(DpssSampler::SlotIndexOf(a), DpssSampler::SlotIndexOf(b));
  EXPECT_NE(a, b);
  EXPECT_EQ(DpssSampler::GenerationOf(b), DpssSampler::GenerationOf(a) + 1);
  EXPECT_FALSE(s.Contains(a));
  EXPECT_TRUE(s.Contains(b));
  EXPECT_EQ(s.GetWeight(b).mult, 20u);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, StaleIdNeverAliasesSlotReuse) {
  // Regression for the erase-reuse-erase sequence: before id generations,
  // Erase(a) + Insert handed the same id back, so a retained stale `a`
  // silently Contains()ed — and could Erase() — the wrong item.
  DpssSampler s(18);
  const auto a = s.Insert(10);
  const auto keep = s.Insert(77);
  s.Erase(a);
  const auto b = s.Insert(20);  // reuses a's slot
  ASSERT_EQ(DpssSampler::SlotIndexOf(a), DpssSampler::SlotIndexOf(b));
  EXPECT_FALSE(s.Contains(a));  // stale id stays stale
  EXPECT_TRUE(s.Contains(b));
  EXPECT_EQ(s.size(), 2u);
  // Several reuse rounds keep producing distinct ids for the same slot.
  auto prev = b;
  for (int round = 0; round < 5; ++round) {
    s.Erase(prev);
    const auto next = s.Insert(30 + round);
    EXPECT_EQ(DpssSampler::SlotIndexOf(next), DpssSampler::SlotIndexOf(b));
    EXPECT_NE(next, prev);
    EXPECT_FALSE(s.Contains(prev));
    prev = next;
  }
  EXPECT_TRUE(s.Contains(keep));
  EXPECT_EQ(s.GetWeight(keep).mult, 77u);
  s.CheckInvariants();
}

TEST(DpssSamplerTest, SetWeightSameBucketPatchesInPlace) {
  DpssSampler s(40);
  const auto a = s.Insert(64);   // bucket 6
  const auto b = s.Insert(100);  // bucket 6
  s.Insert(3);
  // 64 -> 100 stays in bucket [64, 128): in-place patch.
  s.SetWeight(a, 100);
  EXPECT_EQ(s.GetWeight(a).mult, 100u);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{203}));
  s.CheckInvariants();
  // Ids keep working, including the untouched neighbour.
  EXPECT_TRUE(s.Contains(a));
  EXPECT_EQ(s.GetWeight(b).mult, 100u);
  CheckFrequencies(s, {1, 1}, {0, 1}, {a, b}, 40000, 4100);
}

TEST(DpssSamplerTest, SetWeightAcrossBucketsPreservesId) {
  DpssSampler s(41);
  const auto a = s.Insert(7);
  const auto b = s.Insert(1000);
  s.SetWeight(a, uint64_t{1} << 30);  // bucket 2 -> bucket 30
  EXPECT_TRUE(s.Contains(a));
  EXPECT_EQ(s.GetWeight(a).mult, uint64_t{1} << 30);
  s.CheckInvariants();
  s.SetWeight(a, Weight(3, 50));  // float-form weight 3·2^50
  EXPECT_TRUE(s.GetWeight(a) == Weight(3, 50));
  s.CheckInvariants();
  CheckFrequencies(s, {1, 1}, {7, 2}, {a, b}, 40000, 4200);
}

TEST(DpssSamplerTest, SetWeightZeroParksAndRevives) {
  DpssSampler s(42);
  const auto a = s.Insert(500);
  const auto b = s.Insert(11);
  s.SetWeight(a, uint64_t{0});  // parked: never sampled, id stays valid
  EXPECT_TRUE(s.Contains(a));
  EXPECT_TRUE(s.GetWeight(a).IsZero());
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{11}));
  for (int i = 0; i < 200; ++i) {
    for (auto id : s.Sample({0, 1}, {1, 1})) EXPECT_NE(id, a);
  }
  s.CheckInvariants();
  s.SetWeight(a, 500);  // revived under the same id
  EXPECT_EQ(s.GetWeight(a).mult, 500u);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{511}));
  s.CheckInvariants();
  CheckFrequencies(s, {1, 1}, {0, 1}, {a, b}, 40000, 4300);
}

TEST(DpssSamplerTest, SetWeightMatchesEraseInsertDistribution) {
  // Drive two samplers through the same logical weight history — one via
  // SetWeight, one via Erase+Insert — and z-test both against the exact
  // probabilities of the final weight set.
  DpssSampler via_set(43), via_reinsert(44);
  RandomEngine mut(45);
  std::vector<DpssSampler::ItemId> set_ids, re_ids;
  std::vector<uint64_t> weights;
  for (int i = 0; i < 48; ++i) {
    const uint64_t w = 1 + mut.NextBelow(uint64_t{1} << 24);
    weights.push_back(w);
    set_ids.push_back(via_set.Insert(w));
    re_ids.push_back(via_reinsert.Insert(w));
  }
  for (int round = 0; round < 400; ++round) {
    const size_t idx = mut.NextBelow(set_ids.size());
    const uint64_t w = 1 + mut.NextBelow(uint64_t{1} << 24);
    weights[idx] = w;
    via_set.SetWeight(set_ids[idx], w);
    via_reinsert.Erase(re_ids[idx]);
    re_ids[idx] = via_reinsert.Insert(w);
  }
  via_set.CheckInvariants();
  via_reinsert.CheckInvariants();
  EXPECT_EQ(via_set.total_weight(), via_reinsert.total_weight());
  CheckFrequencies(via_set, {2, 3}, {100, 1}, set_ids, 40000, 4400);
  CheckFrequencies(via_reinsert, {2, 3}, {100, 1}, re_ids, 40000, 4500);
}

TEST(DpssSamplerTest, ZeroWeightRepresentationsAreCanonical) {
  // Weight{0, e} is the same value as Weight{0, 0}; zero-to-zero
  // transitions with different exp representations must be no-ops, not
  // phantom revivals of a zero weight into the HALT structure.
  DpssSampler s(48);
  const auto a = s.Insert(0);
  s.SetWeight(a, Weight(0, 5));  // still parked
  EXPECT_TRUE(s.GetWeight(a).IsZero());
  const auto b = s.InsertWeight(Weight(0, 7));  // stored canonically
  EXPECT_TRUE(s.GetWeight(b) == Weight());
  s.SetWeight(b, uint64_t{0});  // zero-to-zero via the u64 overload
  EXPECT_TRUE(s.GetWeight(b).IsZero());
  s.CheckInvariants();
  EXPECT_EQ(s.total_weight(), BigUInt());
  s.SetWeight(a, 9);  // genuine revival still works
  EXPECT_EQ(s.GetWeight(a).mult, 9u);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{9}));
  s.CheckInvariants();
}

TEST(DpssSamplerTest, SetWeightOnStaleIdDies) {
  DpssSampler s(46);
  const auto a = s.Insert(10);
  s.Erase(a);
  s.Insert(20);  // reuses the slot under a new generation
  EXPECT_DEATH(s.SetWeight(a, uint64_t{30}), "CHECK failed");
  EXPECT_DEATH(s.GetWeight(a), "CHECK failed");
  EXPECT_DEATH(s.Erase(a), "CHECK failed");
}

TEST(DpssSamplerTest, TotalWeightBigIntFallbackAndRecovery) {
  // Push Σw past 2^128 so the BigUInt fallback takes over, then erase back
  // into u128 range: totals must stay exact across both switches.
  DpssSampler s(47);
  const auto small = s.Insert(123);
  const auto huge1 = s.InsertWeight(Weight(1, 200));  // 2^200
  const auto huge2 = s.InsertWeight(Weight(5, 199));
  BigUInt expect = BigUInt(uint64_t{123}) + (BigUInt(uint64_t{1}) << 200) +
                   (BigUInt(uint64_t{5}) << 199);
  EXPECT_EQ(s.total_weight(), expect);
  s.CheckInvariants();
  s.SetWeight(huge2, Weight(3, 199));  // same bucket, still big
  expect = BigUInt(uint64_t{123}) + (BigUInt(uint64_t{1}) << 200) +
           (BigUInt(uint64_t{3}) << 199);
  EXPECT_EQ(s.total_weight(), expect);
  s.Erase(huge1);
  s.Erase(huge2);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{123}));
  s.CheckInvariants();
  // Back on the fast path: updates keep tracking exactly.
  s.SetWeight(small, 321);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{321}));
  s.CheckInvariants();
}

TEST(DpssSamplerTest, DeterministicWithExternalEngine) {
  std::vector<uint64_t> weights;
  for (int i = 0; i < 200; ++i) weights.push_back(1 + i * i);
  DpssSampler s1(weights, 21), s2(weights, 22);
  RandomEngine r1(77), r2(77);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s1.Sample({1, 1}, {3, 1}, r1), s2.Sample({1, 1}, {3, 1}, r2));
  }
}

TEST(DpssSamplerTest, TotalWeightTracksUpdates) {
  DpssSampler s(23);
  const auto a = s.Insert(100);
  s.Insert(23);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{123}));
  s.Erase(a);
  EXPECT_EQ(s.total_weight(), BigUInt(uint64_t{23}));
}

TEST(DpssSamplerTest, ExpectedSampleSizeMatchesBruteForce) {
  DpssSampler s(24);
  std::vector<uint64_t> ws = {1, 5, 9, 100, 4096, 70000, 1u << 25};
  double brute = 0;
  for (uint64_t w : ws) s.Insert(w);
  BigUInt wnum, wden;
  const Rational64 alpha{1, 2};
  const Rational64 beta{777, 1};
  s.ComputeW(alpha, beta, &wnum, &wden);
  for (uint64_t w : ws) brute += ExactProb(Weight(w, 0), wnum, wden);
  EXPECT_NEAR(s.ExpectedSampleSize(alpha, beta), brute, 1e-9);
}

TEST(DpssSamplerTest, AllInsignificantRegime) {
  // Huge β drives every item below the 1/N² threshold; queries almost
  // always return empty but must stay exact.
  DpssSampler s(25);
  std::vector<DpssSampler::ItemId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(s.Insert(1 + i));
  // p_x ~ w / 2^40: μ ~ 2e-9; over 200k trials expect ~0 hits but the
  // mechanism (geometric coin) must not crash or bias.
  RandomEngine rng(26);
  uint64_t total = 0;
  for (int t = 0; t < 200000; ++t) {
    total += s.Sample({0, 1}, {uint64_t{1} << 40, 1}, rng).size();
  }
  EXPECT_LE(total, 3u);
}

TEST(DpssSamplerTest, StressManySmallQueriesWithChurn) {
  DpssSampler s(27);
  RandomEngine rng(28);
  std::vector<DpssSampler::ItemId> live;
  uint64_t sampled = 0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 20; ++i) {
      if (!live.empty() && rng.NextBelow(3) == 0) {
        const size_t idx = rng.NextBelow(live.size());
        s.Erase(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      } else {
        live.push_back(s.Insert(1 + rng.NextBelow(1u << 20)));
      }
    }
    sampled += s.Sample({1, 1}, {0, 1}).size();
    sampled += s.Sample({1, 7}, {1, 3}).size();
  }
  EXPECT_GT(sampled, 0u);
  s.CheckInvariants();
}

// --- ComputeW: the u128 form against ParameterizedTotal --------------------

void ExpectTotalU128(U128 total, Rational64 alpha, Rational64 beta,
                     bool expect_u128) {
  BigUInt num, den, exact_num, exact_den;
  ASSERT_EQ(ParameterizedTotalU128(total, alpha, beta, &num, &den),
            expect_u128);
  ParameterizedTotal(BigUInt::FromU128(total), alpha, beta, &exact_num,
                     &exact_den);
  if (expect_u128) {
    EXPECT_EQ(BigUInt::Compare(num, exact_num), 0);
    EXPECT_EQ(BigUInt::Compare(den, exact_den), 0);
  } else {
    EXPECT_TRUE(num.IsZero() && den.IsZero());  // left untouched
  }
}

TEST(ComputeWTest, U128MatchesParameterizedTotal) {
  const U128 one = 1;
  const uint64_t max = ~uint64_t{0};
  // Σw near 2^128: α = 0 leaves only β; α = 1 fits while Σw < 2^127.
  ExpectTotalU128(~U128{0}, Rational64(0, 1), Rational64(5, 7), true);
  ExpectTotalU128((one << 127) - 1, Rational64(1, 1), Rational64(3, 1), true);
  ExpectTotalU128((one << 127) - 1, Rational64(1, 3), Rational64(0, 1), true);
  // β = 0 and α = 0 with word-sized terms at their extremes.
  ExpectTotalU128(12345, Rational64(max, max), Rational64(0, 1), true);
  ExpectTotalU128(12345, Rational64(0, max), Rational64(max, max), true);
  ExpectTotalU128(0, Rational64(7, 3), Rational64(0, 1), true);
  // A product that might need a 129th bit falls back.
  ExpectTotalU128(~U128{0}, Rational64(1, 1), Rational64(0, 1), false);
  ExpectTotalU128(one << 100, Rational64(max, 1), Rational64(0, 1), false);
  ExpectTotalU128(one << 60, Rational64(max, 1), Rational64(0, max), false);
  // α·Σw·β.den fits but adding β.num·α.den wraps u128.
  ExpectTotalU128((one << 127) - 1, Rational64(1, max), Rational64(max, 1),
                  false);
  // Random operands: whenever the u128 form answers it is exact.
  RandomEngine rng(0xc0);
  for (int iter = 0; iter < 20000; ++iter) {
    const int bits = static_cast<int>(rng.NextBelow(129));
    const U128 hi = rng.NextWord();
    const U128 word128 = hi << 64 | rng.NextWord();
    const U128 total = bits == 0 ? 0 : word128 >> (128 - bits);
    auto word = [&] {
      return rng.NextWord() >> rng.NextBelow(64);
    };
    const Rational64 alpha(rng.NextBelow(8) == 0 ? 0 : word(), 1 + word() / 2);
    const Rational64 beta(rng.NextBelow(8) == 0 ? 0 : word(), 1 + word() / 2);
    BigUInt num, den, exact_num, exact_den;
    if (!ParameterizedTotalU128(total, alpha, beta, &num, &den)) continue;
    ParameterizedTotal(BigUInt::FromU128(total), alpha, beta, &exact_num,
                       &exact_den);
    ASSERT_EQ(BigUInt::Compare(num, exact_num), 0) << "iter " << iter;
    ASSERT_EQ(BigUInt::Compare(den, exact_den), 0) << "iter " << iter;
  }
}

TEST(ComputeWTest, SamplerMatchesParameterizedTotalAcrossTheU128Boundary) {
  DpssSampler s(5);
  const uint64_t max = ~uint64_t{0};
  const Rational64 params[][2] = {
      {Rational64(1, 1), Rational64(0, 1)},
      {Rational64(0, 1), Rational64(9, 2)},
      {Rational64(3, 7), Rational64(max, 3)},
      {Rational64(max, 1), Rational64(max, max)},
  };
  auto expect_all = [&](const char* stage) {
    for (const auto& p : params) {
      BigUInt num, den, exact_num, exact_den;
      s.ComputeW(p[0], p[1], &num, &den);
      ParameterizedTotal(s.total_weight(), p[0], p[1], &exact_num,
                         &exact_den);
      EXPECT_EQ(BigUInt::Compare(num, exact_num), 0) << stage;
      EXPECT_EQ(BigUInt::Compare(den, exact_den), 0) << stage;
    }
  };
  expect_all("empty");
  const ItemId a = s.InsertWeight(Weight(uint64_t{1} << 63, 64));  // 2^127
  s.Insert(17);
  expect_all("just below 2^128");
  const ItemId b = s.InsertWeight(Weight(uint64_t{1} << 63, 64));
  expect_all("Σw past 2^128");
  s.Erase(b);
  expect_all("back below 2^128");
  s.Erase(a);
  expect_all("small");
}

}  // namespace
}  // namespace dpss
