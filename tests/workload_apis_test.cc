// Contract tests for the workload-diversity APIs (core/sampler.h):
//   * SampleDistinct — the k-distinct marginals match the exact
//     without-replacement law (frequency-gated per backend);
//   * Decay — decay-then-read is weight-for-weight identical to an
//     explicit SetWeight loop when the weights divide exactly;
//   * TopK / ItemsAbove — agree with a dump-and-sort oracle;
//   * a pending (lazy) decay factor survives snapshot → crash → recover.
//
// These pin the *semantics*; sampler_contract_test.cc pins the capability
// gating (flag clear => kUnsupported) for the same methods.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampler.h"
#include "persist/env.h"
#include "persist/recovery.h"
#include "tests/statistical.h"
#include "tests/test_util.h"
#include "util/little_endian.h"
#include "util/random.h"

namespace dpss {
namespace {

using persist::DurableOptions;
using persist::DurableSampler;
using persist::MemEnv;
using persist::RecoveryManager;
using testing_util::ExpectFrequencyGate;

// The same backend sweep as the contract suite, minus the exhaustive
// sharded cross-product: every registered backend plus one sharded
// composition (whose cross-shard WOR coupling is the novel code path).
std::vector<std::string> WorkloadBackends() {
  std::vector<std::string> names = RegisteredSamplerNames();
  names.push_back("sharded4:halt");
  return names;
}

class WorkloadApisTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Sampler> Make(uint64_t seed) const {
    SamplerSpec spec;
    spec.seed = seed;
    std::unique_ptr<Sampler> s = MakeSampler(GetParam(), spec);
    EXPECT_NE(s, nullptr);
    return s;
  }
};

// --- SampleDistinct: exact k = 2 marginals --------------------------------
//
// Successive weighted sampling without replacement: the first draw picks x
// with w_x/W; the second picks x with w_x/(W - w_y) given first draw y. So
//   P(x in 2-sample) = w_x/W + sum_{y != x} (w_y/W) * w_x/(W - w_y).
// This is NOT proportional to w_x — heavy items are relatively discounted
// (they crowd themselves out) — so a with-replacement-then-dedup bug or a
// wrong residual law shifts these marginals detectably.
TEST_P(WorkloadApisTest, TwoDistinctMarginalsMatchTheWorLaw) {
  auto s = Make(2024);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().sample_distinct) GTEST_SKIP();

  const std::vector<uint64_t> weights = {5, 20, 35, 60};
  const double total = 120.0;
  std::vector<ItemId> ids;
  ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());

  std::vector<double> probs(weights.size());
  for (size_t x = 0; x < weights.size(); ++x) {
    const double wx = static_cast<double>(weights[x]);
    double p = wx / total;
    for (size_t y = 0; y < weights.size(); ++y) {
      if (y == x) continue;
      const double wy = static_cast<double>(weights[y]);
      p += (wy / total) * wx / (total - wy);
    }
    probs[x] = p;
  }

  const uint64_t trials = 30000;
  std::vector<uint64_t> hits(weights.size(), 0);
  std::vector<ItemId> out;
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(s->SampleDistinct(2, &out).ok());
    ASSERT_EQ(out.size(), 2u);
    ASSERT_NE(out[0], out[1]);
    for (const ItemId id : out) {
      for (size_t i = 0; i < ids.size(); ++i) hits[i] += id == ids[i];
    }
  }
  // 4 items x 6 backends: the aggregate z bound (tests/statistical.h).
  ExpectFrequencyGate(hits, trials, probs, 4.75,
                      GetParam() + "/SampleDistinct(2)");
}

// SampleDistinct must leave no trace: weights, totals and the structural
// invariants are exactly what they were before the draws (the park/restore
// implementation detail must not leak).
TEST_P(WorkloadApisTest, SampleDistinctLeavesStateUntouched) {
  auto s = Make(7);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().sample_distinct) GTEST_SKIP();

  std::vector<ItemId> ids;
  const std::vector<uint64_t> seed_weights = {3, 11, 29, 170, 4096};
  ASSERT_TRUE(s->InsertBatch(seed_weights, &ids).ok());
  const BigUInt total = s->TotalWeight();

  std::vector<ItemId> out;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(s->SampleDistinct(3, &out).ok());
  }
  EXPECT_EQ(s->TotalWeight(), total);
  EXPECT_EQ(s->GetWeight(ids[0])->mult, 3u);
  EXPECT_EQ(s->GetWeight(ids[3])->mult, 170u);
  EXPECT_EQ(s->GetWeight(ids[4])->mult, 4096u);
  EXPECT_TRUE(s->CheckInvariants().ok());
}

// --- Decay: equivalence with the explicit SetWeight loop ------------------
//
// With weights that the factor divides exactly there is no floor loss, so
// Decay(f) must leave every observable — per-item GetWeight, TotalWeight,
// DumpItems — bit-identical to setting each weight to w*num/den by hand.
// This holds for the O(1)-metadata lazy path ("halt") and the honest O(n)
// rewrites alike.
TEST_P(WorkloadApisTest, DecayMatchesExplicitSetWeightLoop) {
  auto decayed = Make(91);
  auto manual = Make(91);
  ASSERT_NE(decayed, nullptr);
  ASSERT_NE(manual, nullptr);
  if (!decayed->capabilities().decay) GTEST_SKIP();

  // Multiples of 8: survive two rounds of 3/4 exactly (w * 9/16).
  std::vector<uint64_t> weights;
  RandomEngine wgen(5);
  for (int i = 0; i < 64; ++i) weights.push_back((wgen.NextBelow(500) + 1) * 16);
  std::vector<ItemId> dec_ids, man_ids;
  ASSERT_TRUE(decayed->InsertBatch(weights, &dec_ids).ok());
  ASSERT_TRUE(manual->InsertBatch(weights, &man_ids).ok());
  ASSERT_EQ(dec_ids, man_ids);

  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(decayed->Decay({3, 4}).ok());
    for (size_t i = 0; i < man_ids.size(); ++i) {
      const Weight w = *manual->GetWeight(man_ids[i]);
      ASSERT_TRUE(manual->SetWeight(man_ids[i], Weight{w.mult / 4 * 3, w.exp})
                      .ok());
    }
    EXPECT_EQ(decayed->TotalWeight(), manual->TotalWeight())
        << "round " << round;
  }
  for (size_t i = 0; i < dec_ids.size(); ++i) {
    EXPECT_EQ(decayed->GetWeight(dec_ids[i])->mult,
              manual->GetWeight(man_ids[i])->mult)
        << "item " << i;
  }

  // Decay interleaves with ordinary mutations without corrupting either.
  ASSERT_TRUE(decayed->Erase(dec_ids[0]).ok());
  ASSERT_TRUE(manual->Erase(man_ids[0]).ok());
  const auto dn = decayed->Insert(uint64_t{1024});
  const auto mn = manual->Insert(uint64_t{1024});
  ASSERT_TRUE(dn.ok() && mn.ok());
  EXPECT_EQ(*dn, *mn);
  ASSERT_TRUE(decayed->Decay({1, 2}).ok());
  for (const ItemId id : {man_ids[5], man_ids[6], *mn}) {
    const Weight w = *manual->GetWeight(id);
    ASSERT_TRUE(manual->SetWeight(id, Weight{w.mult / 2, w.exp}).ok());
  }
  for (size_t i = 7; i < man_ids.size(); ++i) {
    const Weight w = *manual->GetWeight(man_ids[i]);
    ASSERT_TRUE(manual->SetWeight(man_ids[i], Weight{w.mult / 2, w.exp}).ok());
  }
  for (size_t i = 1; i < 5; ++i) {
    const Weight w = *manual->GetWeight(man_ids[i]);
    ASSERT_TRUE(manual->SetWeight(man_ids[i], Weight{w.mult / 2, w.exp}).ok());
  }
  EXPECT_EQ(decayed->TotalWeight(), manual->TotalWeight());
  EXPECT_EQ(decayed->GetWeight(*dn)->mult, 512u);
  EXPECT_TRUE(decayed->CheckInvariants().ok());
  EXPECT_TRUE(manual->CheckInvariants().ok());
}

// --- Decay: the sampling law on the decayed weights ----------------------
//
// After Decay, queries must follow min{w'/(α·Σw' + β), 1} on the decayed
// weights w'. On "halt" the factor is pending metadata that the query
// folds into W — the conversion this gate pins down. Weights are multiples
// of 16, so two rounds of 3/4 floor nothing, and the heavy items clamp at
// probability 1. The fixed-(α, β) backends get the same (α, β) through
// their spec. ShardedDecayLawTest below covers weights that do floor.
TEST_P(WorkloadApisTest, SamplingLawHoldsAfterDecay) {
  const Rational64 alpha{1, 16};
  const Rational64 beta{50, 1};
  SamplerSpec spec;
  spec.seed = 314;
  spec.fixed_alpha = alpha;
  spec.fixed_beta = beta;
  std::unique_ptr<Sampler> s = MakeSampler(GetParam(), spec);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().decay) GTEST_SKIP();

  const std::vector<uint64_t> units = {1,  2,  3,  5,   8,   13,
                                       21, 34, 55, 89, 144, 400};
  std::vector<uint64_t> weights;
  for (const uint64_t u : units) weights.push_back(16 * u);
  std::vector<ItemId> ids;
  ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());
  ASSERT_TRUE(s->Decay({3, 4}).ok());
  ASSERT_TRUE(s->Decay({3, 4}).ok());

  double total = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(s->GetWeight(ids[i])->mult, 9 * units[i]) << "item " << i;
    total += static_cast<double>(9 * units[i]);
  }
  const double w_param = alpha.ToDouble() * total + beta.ToDouble();
  std::vector<double> probs(ids.size());
  int clamped = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    probs[i] = std::min(static_cast<double>(9 * units[i]) / w_param, 1.0);
    clamped += probs[i] == 1.0;
  }
  ASSERT_GE(clamped, 2) << "test design: the law must clamp some items";

  const uint64_t trials = 20000;
  std::vector<uint64_t> hits(ids.size(), 0);
  std::vector<ItemId> out;
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(s->SampleInto(alpha, beta, &out).ok());
    for (const ItemId id : out) {
      for (size_t i = 0; i < ids.size(); ++i) hits[i] += id == ids[i];
    }
  }
  ExpectFrequencyGate(hits, trials, probs, 4.75,
                      GetParam() + "/SampleInto after Decay");
}

// Decay through ApplyBatch: one kDecay op among ordinary mutations applies
// at its position in the batch, identically to the direct call.
TEST_P(WorkloadApisTest, DecayInsideApplyBatchAppliesInOrder) {
  auto batched = Make(13);
  auto direct = Make(13);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(direct, nullptr);
  if (!batched->capabilities().decay) GTEST_SKIP();

  std::vector<ItemId> b_ids, d_ids;
  const std::vector<uint64_t> seed_weights = {8, 24, 40};
  ASSERT_TRUE(batched->InsertBatch(seed_weights, &b_ids).ok());
  ASSERT_TRUE(direct->InsertBatch(seed_weights, &d_ids).ok());

  // Halve everything, then insert 100 — the insert must NOT be halved.
  const std::vector<Op> ops = {Op::Decay({1, 2}), Op::Insert(uint64_t{100})};
  std::vector<ItemId> b_new;
  ASSERT_TRUE(batched->ApplyBatch(ops, &b_new).ok());
  ASSERT_TRUE(direct->Decay({1, 2}).ok());
  const auto d_new = direct->Insert(uint64_t{100});
  ASSERT_TRUE(d_new.ok());

  ASSERT_EQ(b_new.size(), 1u);
  EXPECT_EQ(b_new[0], *d_new);
  EXPECT_EQ(batched->TotalWeight(), direct->TotalWeight());
  EXPECT_EQ(batched->GetWeight(b_ids[0])->mult, 4u);
  EXPECT_EQ(batched->GetWeight(b_new[0])->mult, 100u);
  EXPECT_TRUE(batched->CheckInvariants().ok());
}

// --- TopK / ItemsAbove: dump-and-sort oracle ------------------------------

TEST_P(WorkloadApisTest, TopKMatchesSortOracle) {
  auto s = Make(55);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().top_k) GTEST_SKIP();

  // Random weights with deliberate ties and a parked (zero) item.
  RandomEngine wgen(21);
  std::vector<uint64_t> weights;
  for (int i = 0; i < 120; ++i) weights.push_back(wgen.NextBelow(40));
  std::vector<ItemId> ids;
  ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());

  // Oracle: live non-zero weights, descending.
  std::vector<uint64_t> sorted;
  for (const uint64_t w : weights) {
    if (w != 0) sorted.push_back(w);
  }
  std::sort(sorted.rbegin(), sorted.rend());

  for (const uint64_t k : {1u, 7u, 64u, 500u}) {
    std::vector<ItemId> out;
    ASSERT_TRUE(s->TopK(k, &out).ok());
    const size_t expect_n = std::min<size_t>(k, sorted.size());
    ASSERT_EQ(out.size(), expect_n) << "k=" << k;
    // Ties make the id choice ambiguous; the weight sequence is not.
    std::vector<uint64_t> got;
    for (const ItemId id : out) got.push_back(s->GetWeight(id)->mult);
    EXPECT_EQ(got, std::vector<uint64_t>(sorted.begin(),
                                         sorted.begin() + expect_n))
        << "k=" << k;
    // Distinct ids even under weight ties.
    std::vector<ItemId> uniq = out;
    std::sort(uniq.begin(), uniq.end());
    EXPECT_EQ(std::unique(uniq.begin(), uniq.end()), uniq.end()) << "k=" << k;
  }
}

TEST_P(WorkloadApisTest, ItemsAboveMatchesFilterOracle) {
  auto s = Make(56);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().top_k) GTEST_SKIP();

  RandomEngine wgen(22);
  std::vector<uint64_t> weights;
  for (int i = 0; i < 80; ++i) weights.push_back(wgen.NextBelow(1000));
  std::vector<ItemId> ids;
  ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());

  for (const uint64_t threshold : {1u, 250u, 999u, 5000u}) {
    std::vector<ItemId> out;
    ASSERT_TRUE(s->ItemsAbove(Weight{threshold, 0}, &out).ok());
    std::vector<ItemId> expect;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] != 0 && weights[i] >= threshold) expect.push_back(ids[i]);
    }
    std::sort(out.begin(), out.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out, expect) << "threshold=" << threshold;
  }
}

// TopK under a *pending* lazy factor ("halt"): flooring does not preserve
// cross-exponent order, so the ranking must be computed on the decayed
// weights, not the stored ones. 3*2^1 = 6 and 5*2^0 = 5 swap places under
// f = 1/2 with floors: floor(3/2)*2^1 = 2 while floor(5/2) = 2... use
// values where the decayed order genuinely differs from the stored order.
TEST_P(WorkloadApisTest, TopKRanksDecayedWeightsNotStoredOnes) {
  auto s = Make(57);
  ASSERT_NE(s, nullptr);
  if (!s->capabilities().decay || !s->capabilities().top_k) GTEST_SKIP();

  // Stored order: a(12) > b(10). After Decay(1/3) with floor semantics:
  // a -> floor(12/3) = 4, b -> floor(10/3) = 3 — order kept; but
  // c(5) vs b(10): c -> 1, b -> 3. Use a case where floors tie and ids
  // must still be distinct, plus verify the ranking against GetWeight
  // (the floored observable) after the decay.
  const auto a = s->Insert(uint64_t{12});
  const auto b = s->Insert(uint64_t{10});
  const auto c = s->Insert(uint64_t{5});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(s->Decay({1, 3}).ok());

  std::vector<ItemId> out;
  ASSERT_TRUE(s->TopK(3, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], *a);
  EXPECT_EQ(out[1], *b);
  EXPECT_EQ(out[2], *c);

  // ItemsAbove on the decayed observable: >= 3 keeps a and b only.
  ASSERT_TRUE(s->ItemsAbove(Weight{3, 0}, &out).ok());
  std::sort(out.begin(), out.end());
  std::vector<ItemId> expect = {*a, *b};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out, expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, WorkloadApisTest, ::testing::ValuesIn(WorkloadBackends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return testing_util::GTestNameFromBackend(info.param);
    });

// --- Decay with flooring: "halt" vs the sharded wrapper -------------------
//
// When a decay floors, a bare "halt" keeps sampling the exact (unfloored)
// weights w·f against α·f·Σw + β, while the sharded wrapper — which builds
// its global denominator from the shards' reported totals — decays eagerly
// and samples by the reported, floored weights, like "naive".

// Odd weights under Decay(1/2): the light items lose half a unit each and
// the weight-1 item parks at 0. The heavy items clamp at probability 1.
TEST(ShardedDecayLawTest, ShardedSamplesReportedWeights) {
  const Rational64 alpha{1, 16};
  const Rational64 beta{2, 1};
  std::vector<uint64_t> weights;
  for (uint64_t w = 1; w < 32; w += 2) weights.push_back(w);
  weights.push_back(301);
  weights.push_back(501);

  for (const std::string name :
       {"halt", "naive", "sharded1:halt", "sharded8:halt", "sharded4:naive"}) {
    SamplerSpec spec;
    spec.seed = 2718;
    std::unique_ptr<Sampler> s = MakeSampler(name, spec);
    ASSERT_NE(s, nullptr) << name;
    std::vector<ItemId> ids;
    ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());
    ASSERT_TRUE(s->Decay({1, 2}).ok());

    // Every backend reports the floored weights; only a bare "halt"
    // samples the exact halves.
    const bool exact = name == "halt";
    std::vector<double> w(ids.size());
    double total = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(s->GetWeight(ids[i])->mult, weights[i] / 2) << name;
      w[i] = exact ? weights[i] / 2.0 : static_cast<double>(weights[i] / 2);
      total += w[i];
    }
    const double w_param = alpha.ToDouble() * total + beta.ToDouble();

    const uint64_t trials = 20000;
    std::vector<uint64_t> hits(ids.size(), 0);
    std::vector<ItemId> out;
    for (uint64_t t = 0; t < trials; ++t) {
      ASSERT_TRUE(s->SampleInto(alpha, beta, &out).ok());
      for (const ItemId id : out) {
        for (size_t i = 0; i < ids.size(); ++i) hits[i] += id == ids[i];
      }
    }
    // A weight-0 item is never returned; the rest go through the gate.
    std::vector<uint64_t> gated_hits;
    std::vector<double> probs;
    int clamped = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (w[i] == 0) {
        EXPECT_EQ(hits[i], 0u) << name << ": parked item " << i;
        continue;
      }
      gated_hits.push_back(hits[i]);
      probs.push_back(std::min(w[i] / w_param, 1.0));
      clamped += probs.back() == 1.0;
    }
    ASSERT_EQ(clamped, 2) << name << ": test design: two items must clamp";
    ExpectFrequencyGate(gated_hits, trials, probs, 4.75,
                        name + "/SampleInto after a flooring Decay");
  }
}

// The smallest flooring case: every weight decays to 0, so the wrapper's
// total is 0 and the query (α = 1, β = 0) returns nothing, where a bare
// "halt" still returns each item with probability 1/n.
TEST(ShardedDecayLawTest, FullyFlooredShardsReturnNothing) {
  for (const std::string name : {"sharded1:halt", "sharded8:halt"}) {
    std::unique_ptr<Sampler> s = MakeSampler(name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_TRUE(s->InsertBatch(std::vector<uint64_t>(64, 1), nullptr).ok());
    ASSERT_TRUE(s->Decay({1, 2}).ok());
    EXPECT_TRUE(s->TotalWeight().IsZero()) << name;
    std::vector<ItemId> out;
    for (int t = 0; t < 100; ++t) {
      ASSERT_TRUE(s->SampleInto({1, 1}, {0, 1}, &out).ok());
      ASSERT_TRUE(out.empty()) << name << ": returned " << out.size();
    }
    EXPECT_TRUE(s->CheckInvariants().ok()) << name;
  }
}

// A sharded snapshot whose "halt" section still carries a pending decay
// factor (the layout written while the wrapper forwarded Decay lazily)
// restores with the factor materialized, so the wrapper's totals and its
// sampling law agree again.
TEST(ShardedDecayLawTest, RestoreMaterializesPendingHaltSection) {
  std::unique_ptr<Sampler> halt = MakeSampler("halt");
  ASSERT_NE(halt, nullptr);
  ASSERT_TRUE(halt->InsertBatch(std::vector<uint64_t>(64, 1), nullptr).ok());
  ASSERT_TRUE(halt->Decay({1, 2}).ok());
  std::string section;
  ASSERT_TRUE(halt->Serialize(&section).ok());
  ASSERT_EQ(section.compare(0, 8, "DPSSDK01"), 0) << "factor must be pending";

  // The sharded image: magic "DPSSSHD1", shard count, inner name, then
  // one length-prefixed section per shard.
  std::string image;
  AppendU64(&image, 0x3144485353535044ULL);
  AppendU64(&image, 1);
  AppendU16(&image, 4);
  image += "halt";
  AppendU64(&image, section.size());
  image += section;

  std::unique_ptr<Sampler> s = MakeSampler("sharded1:halt");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->Restore(image).ok());
  EXPECT_EQ(s->size(), 64u);
  EXPECT_TRUE(s->TotalWeight().IsZero());
  std::vector<ItemId> out;
  for (int t = 0; t < 100; ++t) {
    ASSERT_TRUE(s->SampleInto({1, 1}, {0, 1}, &out).ok());
    ASSERT_TRUE(out.empty()) << "returned " << out.size();
  }
  EXPECT_TRUE(s->CheckInvariants().ok());
}

// --- Durability: a pending decay epoch survives crash + recovery ----------

DurableOptions HaltOptions(persist::Env* env) {
  DurableOptions opts;
  opts.backend = "halt";
  opts.spec.seed = 77;
  opts.wal_sync_every = 1;
  opts.env = env;
  return opts;
}

// The hard case for the lazy path: a checkpoint taken while a factor is
// still pending (the snapshot must carry the decay envelope), a further
// Decay logged only in the WAL suffix, then a crash. Recovery must replay
// the suffix against the restored pending state and land on exactly the
// weights the live run observed.
TEST(WorkloadDurabilityTest, PendingDecaySurvivesSnapshotCrashRecover) {
  MemEnv mem;
  ItemId a = 0, b = 0, c = 0;
  {
    auto opened = RecoveryManager::Open("state", HaltOptions(&mem));
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    DurableSampler& d = **opened;
    a = *d.Insert(uint64_t{16});
    b = *d.Insert(uint64_t{48});
    ASSERT_TRUE(d.Decay({3, 4}).ok());  // a=12, b=36; stays pending
    ASSERT_TRUE(d.Checkpoint().ok());   // snapshot with the envelope
    ASSERT_TRUE(d.Decay({1, 2}).ok());  // a=6, b=18; WAL suffix only
    c = *d.Insert(uint64_t{8});         // flushes the pending factor
    ASSERT_TRUE(d.SetWeight(a, uint64_t{6}).ok());  // no-op rewrite, logged
    EXPECT_EQ(d.GetWeight(b)->mult, 18u);
    // No clean shutdown: the destructor is the "crash" (everything above
    // was individually synced by wal_sync_every = 1).
  }
  auto reopened = RecoveryManager::Open("state", HaltOptions(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  DurableSampler& d = **reopened;
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.GetWeight(a)->mult, 6u);
  EXPECT_EQ(d.GetWeight(b)->mult, 18u);
  EXPECT_EQ(d.GetWeight(c)->mult, 8u);
  EXPECT_EQ(d.TotalWeight(), BigUInt(uint64_t{32}));
  EXPECT_TRUE(d.CheckInvariants().ok());

  // The recovered sampler keeps working: another decay, another item.
  ASSERT_TRUE(d.Decay({1, 2}).ok());
  EXPECT_EQ(d.GetWeight(a)->mult, 3u);
  EXPECT_EQ(d.TotalWeight(), BigUInt(uint64_t{16}));
}

// A decay logged in the WAL with NO checkpoint at all: replay starts from
// the empty sampler and must re-apply inserts and the decay in order.
TEST(WorkloadDurabilityTest, DecayReplaysFromBareWal) {
  MemEnv mem;
  ItemId a = 0, b = 0;
  {
    auto opened = RecoveryManager::Open("state", HaltOptions(&mem));
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    DurableSampler& d = **opened;
    a = *d.Insert(uint64_t{100});
    b = *d.Insert(uint64_t{201});  // 201/3 = 67: divides exactly
    ASSERT_TRUE(d.Decay({1, 3}).ok());
  }
  auto reopened = RecoveryManager::Open("state", HaltOptions(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  DurableSampler& d = **reopened;
  EXPECT_EQ(d.GetWeight(a)->mult, 33u);  // floor(100/3)
  EXPECT_EQ(d.GetWeight(b)->mult, 67u);
  EXPECT_TRUE(d.CheckInvariants().ok());
}

}  // namespace
}  // namespace dpss
