// Direct tests of HaltStructure beneath the DpssSampler facade: raw-W
// sampling semantics, hierarchy parameters, update propagation across the
// three levels, ablation-flag distributional equivalence, and memory
// accounting.

#include "core/halt.h"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/bernoulli.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace dpss {
namespace {

using testing_util::BernoulliZScore;

class Recorder : public BucketStructure::RelocationListener {
 public:
  void OnRelocate(uint64_t handle, BucketStructure::Location loc) override {
    locations[handle] = loc;
  }
  std::map<uint64_t, BucketStructure::Location> locations;
};

TEST(HaltStructureTest, ParametersFollowCapacity) {
  Recorder rec;
  // Capacity 16 = 16^1: g1 = 4, level-2 capacity pow16(4) = 16, g2 = m = 4.
  HaltStructure small(4, &rec);
  EXPECT_EQ(small.level1_log2_capacity(), 4);
  EXPECT_EQ(small.m(), 4);
  EXPECT_EQ(small.k_slots(), 2 * 2 + 2);

  // Capacity 2^20: g1 = 20, level-2 capacity pow16(20) = 256, g2 = m = 8.
  HaltStructure big(20, &rec);
  EXPECT_EQ(big.m(), 8);
  EXPECT_EQ(big.k_slots(), 2 * 3 + 2);
}

TEST(HaltStructureTest, RawWSamplingSemantics) {
  Recorder rec;
  HaltStructure h(4, &rec);
  h.Insert(0, Weight(8, 0));
  h.Insert(1, Weight(24, 0));
  RandomEngine rng(1);
  // W = 16: item 0 has p = 1/2, item 1 has p = 1 (24 >= 16).
  const BigUInt wnum(uint64_t{16}), wden(uint64_t{1});
  const uint64_t trials = 60000;
  uint64_t h0 = 0, h1 = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    for (uint64_t x : h.Sample(wnum, wden, rng)) {
      h0 += x == 0;
      h1 += x == 1;
    }
  }
  EXPECT_EQ(h1, trials);
  EXPECT_LE(std::abs(BernoulliZScore(h0, trials, 0.5)), 4.5);
}

TEST(HaltStructureTest, FractionalWSemantics) {
  Recorder rec;
  HaltStructure h(4, &rec);
  h.Insert(0, Weight(1, 0));
  RandomEngine rng(2);
  // W = 7/2: p = 2/7.
  const BigUInt wnum(uint64_t{7}), wden(uint64_t{2});
  const uint64_t trials = 70000;
  uint64_t hits = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    hits += h.Sample(wnum, wden, rng).size();
  }
  EXPECT_LE(std::abs(BernoulliZScore(hits, trials, 2.0 / 7.0)), 4.5);
}

TEST(HaltStructureTest, UpdatePropagationDepth) {
  // Filling many distinct buckets in one group exercises the level-2 and
  // level-3 re-insertions; the invariant checker validates every synthetic
  // weight afterwards.
  Recorder rec;
  HaltStructure h(8, &rec);
  uint64_t handle = 0;
  for (int e = 0; e < 40; ++e) {
    for (int c = 0; c < 3; ++c) {
      h.Insert(handle++, Weight(uint64_t{1} << e, 0));
      h.CheckInvariants();
    }
  }
  EXPECT_EQ(h.size(), 120u);
  // Delete in an interleaved order.
  for (uint64_t x = 0; x < 120; x += 2) {
    h.Erase(rec.locations[x]);
    if (x % 20 == 0) h.CheckInvariants();
  }
  h.CheckInvariants();
  EXPECT_EQ(h.size(), 60u);
}

TEST(HaltStructureTest, AblationFlagsPreserveDistribution) {
  RandomEngine wgen(3);
  for (const bool use_table : {true, false}) {
    for (const bool linear : {false, true}) {
      Recorder rec;
      HaltStructure h(8, &rec);
      std::vector<uint64_t> weights;
      for (uint64_t i = 0; i < 30; ++i) {
        weights.push_back(1 + (i * i * 37) % 5000);
        h.Insert(i, Weight(weights.back(), 0));
      }
      h.SetUseLookupTable(use_table);
      h.SetInsignificantLinearScan(linear);
      // W = 3·Σw: every p = w/(3Σw) < 1.
      uint64_t sum = 0;
      for (uint64_t w : weights) sum += w;
      const BigUInt wnum(3 * sum), wden(uint64_t{1});
      RandomEngine rng(100 + use_table * 2 + linear);
      const uint64_t trials = 40000;
      std::vector<uint64_t> hits(weights.size(), 0);
      for (uint64_t t = 0; t < trials; ++t) {
        for (uint64_t x : h.Sample(wnum, wden, rng)) hits[x]++;
      }
      for (size_t i = 0; i < weights.size(); ++i) {
        const double p = static_cast<double>(weights[i]) /
                         (3.0 * static_cast<double>(sum));
        EXPECT_LE(std::abs(BernoulliZScore(hits[i], trials, p)), 4.75)
            << "table=" << use_table << " linear=" << linear << " i=" << i;
      }
    }
  }
}

TEST(HaltStructureTest, WZeroSelectsEverything) {
  Recorder rec;
  HaltStructure h(4, &rec);
  for (uint64_t i = 0; i < 10; ++i) h.Insert(i, Weight(1 + i, 0));
  RandomEngine rng(4);
  EXPECT_EQ(h.Sample(BigUInt(), BigUInt(uint64_t{1}), rng).size(), 10u);
}

TEST(HaltStructureTest, HugeWMakesSamplingRare) {
  Recorder rec;
  HaltStructure h(4, &rec);
  for (uint64_t i = 0; i < 20; ++i) h.Insert(i, Weight(1 + i, 0));
  RandomEngine rng(5);
  const BigUInt wnum = BigUInt::PowerOfTwo(120);
  uint64_t total = 0;
  for (int t = 0; t < 5000; ++t) {
    total += h.Sample(wnum, BigUInt(uint64_t{1}), rng).size();
  }
  EXPECT_EQ(total, 0u);
}

TEST(HaltStructureTest, FloatWeightsAcrossHundredsOfBuckets) {
  Recorder rec;
  HaltStructure h(4, &rec);
  std::map<uint64_t, Weight> items;
  uint64_t handle = 0;
  for (uint32_t e = 0; e < 250; e += 7) {
    items[handle] = Weight(3, e);
    h.Insert(handle, Weight(3, e));
    ++handle;
  }
  h.CheckInvariants();
  // W = 2^250: the top item (3·2^245) has p = 3/32.
  RandomEngine rng(6);
  const BigUInt wnum = BigUInt::PowerOfTwo(250);
  const uint64_t trials = 60000;
  uint64_t top_hits = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    for (uint64_t x : h.Sample(wnum, BigUInt(uint64_t{1}), rng)) {
      top_hits += x == handle - 1;
    }
  }
  EXPECT_LE(std::abs(BernoulliZScore(top_hits, trials, 3.0 / 32.0)), 4.5);
}

TEST(HaltStructureTest, MemoryGrowsLinearly) {
  Recorder rec;
  HaltStructure h(8, &rec);
  const size_t base = h.ApproxMemoryBytes();
  for (uint64_t i = 0; i < 10000; ++i) h.Insert(i, Weight(1 + i % 97, 0));
  const size_t grown = h.ApproxMemoryBytes();
  EXPECT_GT(grown, base);
  // Well under 200 bytes/item for the structure itself.
  EXPECT_LT(grown - base, 10000u * 200u);
}

TEST(HaltStructureTest, LookupTableRowsStayBounded) {
  Recorder rec;
  HaltStructure h(8, &rec);
  RandomEngine rng(7);
  RandomEngine wgen(8);
  for (uint64_t i = 0; i < 3000; ++i) {
    h.Insert(i, Weight(1 + wgen.NextBelow(uint64_t{1} << 40), 0));
  }
  for (int q = 0; q < 3000; ++q) {
    const BigUInt wnum = BigUInt::PowerOfTwo(30 + (q % 25));
    h.Sample(wnum, BigUInt(uint64_t{1}), rng);
  }
  // The number of distinct configurations touched is tiny compared to the
  // (m+1)^K possible rows.
  EXPECT_LE(h.lookup_table().CachedRows(), 4000u);
  EXPECT_GT(h.lookup_table().CachedRows(), 0u);
}

// --- Query thresholds: the u128 form against BigRational -------------------

void ExpectThresholdsMatch(U128 wnum, U128 wden, int m) {
  HaltStructure::WThresholds fast;
  ASSERT_TRUE(HaltStructure::ComputeThresholdsU128(wnum, wden, m, &fast));
  const HaltStructure::WThresholds exact = HaltStructure::ComputeThresholds(
      BigUInt::FromU128(wnum), BigUInt::FromU128(wden), m);
  EXPECT_EQ(fast.floor_log2_w, exact.floor_log2_w);
  EXPECT_EQ(fast.ceil_log2_w, exact.ceil_log2_w);
  EXPECT_EQ(fast.i1_final, exact.i1_final);
}

TEST(HaltThresholdsTest, U128MatchesBigRationalAroundPowersOfTwo) {
  const U128 one = 1;
  for (int m : {4, 8, 12, 16}) {
    for (U128 wden : {one, U128{3}, (one << 64) + 1}) {
      // W = 2^k exactly (wnum = 2^k·wden) and one unit either side, for
      // every k with 2^k·wden + 1 inside 128 bits.
      for (int k = 0; BitLength(wden) + k <= 127; ++k) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " bits(wden)=" + std::to_string(BitLength(wden)));
        const U128 at = wden << k;
        if (at > 1) ExpectThresholdsMatch(at - 1, wden, m);
        ExpectThresholdsMatch(at, wden, m);
        ExpectThresholdsMatch(at + 1, wden, m);
      }
      // W below 1: 2^-k·wden when exact, and the neighbours.
      for (int k = 1; k < BitLength(wden); ++k) {
        const U128 at = wden >> k;
        if (at > 1) ExpectThresholdsMatch(at - 1, wden, m);
        ExpectThresholdsMatch(at, wden, m);
        ExpectThresholdsMatch(at + 1, wden, m);
      }
      ExpectThresholdsMatch(1, wden, m);
    }
  }
}

TEST(HaltThresholdsTest, U128MatchesBigRationalOnRandomW) {
  RandomEngine rng(0x7417);
  for (int iter = 0; iter < 20000; ++iter) {
    const int num_bits = 1 + static_cast<int>(rng.NextBelow(128));
    const int den_bits = 1 + static_cast<int>(rng.NextBelow(120));
    const U128 wnum = (static_cast<U128>(1) << (num_bits - 1)) |
                      (num_bits > 1 ? RandomBigBelow(static_cast<U128>(1)
                                                         << (num_bits - 1),
                                                     rng)
                                    : 0);
    const U128 wden = (static_cast<U128>(1) << (den_bits - 1)) |
                      (den_bits > 1 ? RandomBigBelow(static_cast<U128>(1)
                                                         << (den_bits - 1),
                                                     rng)
                                    : 0);
    ExpectThresholdsMatch(wnum, wden, 8);
  }
}

TEST(HaltThresholdsTest, WideOperandBoundaries) {
  const U128 one = 1;
  // wnum at 2^127 and above: the BigRational form shifts wnum left one
  // bit (a 129th bit); the u128 form needs no shift and still matches.
  for (U128 wnum : {one << 127, (one << 127) + 1, ~U128{0}}) {
    for (U128 wden : {one, U128{3}, (one << 64) + 1}) {
      ExpectThresholdsMatch(wnum, wden, 8);
    }
  }
  // wden·m² with bit lengths summing to 128 stays on u128; 129 must fall
  // back (and leave the output untouched).
  for (int m : {4, 8, 12}) {
    const int m2_bits = BitLength(static_cast<uint64_t>(m * m));
    const U128 fits = ~U128{0} >> m2_bits;            // 128 - m2_bits bits
    const U128 spills = (~U128{0} >> (m2_bits - 1));  // one bit more
    ExpectThresholdsMatch(~U128{0}, fits, m);
    ExpectThresholdsMatch(fits, fits, m);
    HaltStructure::WThresholds out;
    out.floor_log2_w = 12345;
    EXPECT_FALSE(
        HaltStructure::ComputeThresholdsU128(~U128{0}, spills, m, &out));
    EXPECT_FALSE(HaltStructure::ComputeThresholdsU128(1, spills, m, &out));
    EXPECT_EQ(out.floor_log2_w, 12345);
  }
}

TEST(HaltThresholdsTest, FallbackQueryMatchesForcedBigInt) {
  // A W whose wden·m² spills 128 bits while wnum and wden still fit runs
  // the BigRational thresholds with the coins on u128; the samples must
  // equal the all-BigUInt run from the same seed.
  Recorder rec_fast, rec_slow;
  HaltStructure fast(8, &rec_fast);
  HaltStructure slow(8, &rec_slow);
  slow.SetForceBigIntArithmetic(true);
  RandomEngine weights(3);
  for (uint64_t h = 0; h < 200; ++h) {
    const Weight w(1 + weights.NextBelow(4), 0);
    fast.Insert(h, w);
    slow.Insert(h, w);
  }
  const int m2_bits = BitLength(static_cast<uint64_t>(fast.m() * fast.m()));
  const U128 wden = (static_cast<U128>(1) << (128 - m2_bits)) + 12345;
  // W = 2^(m2_bits-1) - 4 keeps wnum inside 128 bits (m = 4 here: W = 12,
  // so μ is about 42).
  const U128 wnum = wden * ((uint64_t{1} << (m2_bits - 1)) - 4);
  HaltStructure::WThresholds unused;
  ASSERT_FALSE(
      HaltStructure::ComputeThresholdsU128(wnum, wden, fast.m(), &unused));
  const BigUInt bwnum = BigUInt::FromU128(wnum);
  const BigUInt bwden = BigUInt::FromU128(wden);
  RandomEngine rng_fast(77), rng_slow(77);
  std::vector<uint64_t> out_fast, out_slow;
  size_t total = 0;
  for (int q = 0; q < 300; ++q) {
    fast.SampleInto(bwnum, bwden, rng_fast, &out_fast);
    slow.SampleInto(bwnum, bwden, rng_slow, &out_slow);
    ASSERT_EQ(out_fast, out_slow) << "query " << q;
    total += out_fast.size();
  }
  EXPECT_GT(total, 300u);  // the queries sampled something
}

}  // namespace
}  // namespace dpss
