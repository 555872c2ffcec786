// Allocation-count hook: proves the "zero heap allocations per query" claim
// of the u128 fast path + pooled QueryScratch design, and the matching
// claim for the update hot path (Insert/Erase/SetWeight with the u128
// total-weight cache). This test overrides the global operator new/delete
// to count allocations, so it lives in its own binary (see CMakeLists.txt).
//
// The counter is exact, not statistical: after a warm-up phase has grown
// every pooled buffer to its steady-state capacity, a fixed-seed batch of
// small-μ queries — or steady-state updates — over a u64-weight workload
// must perform zero allocations.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/dpss_sampler.h"
#include "core/sampler.h"
#include "util/random.h"

namespace {

std::size_t g_alloc_count = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dpss {
namespace {

TEST(AllocationCount, FastPathQueryIsAllocationFree) {
  RandomEngine wrng(41);
  std::vector<uint64_t> weights(1 << 16);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  DpssSampler s(weights, 42);

  RandomEngine rng(43);
  std::vector<DpssSampler::ItemId> buf;
  const Rational64 alpha{1, 4};  // μ ≈ 4
  const Rational64 beta{0, 1};

  // Warm-up: grow the output buffer and every scratch pool to steady state.
  for (int q = 0; q < 2000; ++q) s.SampleInto(alpha, beta, rng, &buf);

  const std::size_t before = g_alloc_count;
  uint64_t sampled = 0;
  for (int q = 0; q < 500; ++q) {
    s.SampleInto(alpha, beta, rng, &buf);
    sampled += buf.size();
  }
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "fast-path queries allocated; sampled " << sampled << " items";
  EXPECT_GT(sampled, 0u);
}

TEST(AllocationCount, LargeMuQueryScansSlabWithoutAllocating) {
  // The μ ≈ 64 regime walks many buckets per query, so ExtractItems streams
  // through whole slab extents (and the block-RNG prefetch path runs at its
  // full depth). The slab layout must keep that scan allocation-free: the
  // extents are read in place through BucketView, never copied out.
  RandomEngine wrng(60);
  std::vector<uint64_t> weights(1 << 16);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  DpssSampler s(weights, 61);

  RandomEngine rng(62);
  std::vector<DpssSampler::ItemId> buf;
  const Rational64 alpha{1, 64};
  const Rational64 beta{0, 1};
  for (int q = 0; q < 500; ++q) s.SampleInto(alpha, beta, rng, &buf);

  // A μ ≈ 64 window draws tens of thousands of coins, enough that the
  // ~2^-16-per-coin first-rung ambiguity — whose exact BigUInt resume is
  // *allowed* to allocate — fires now and then. As in the churn tests
  // below, the steady-state claim is windowed: the scan path itself never
  // allocates, so clean windows of whole queries must exist.
  bool clean_window = false;
  std::size_t min_window_allocs = ~std::size_t{0};
  uint64_t sampled = 0;
  for (int window = 0; window < 8 && !clean_window; ++window) {
    const std::size_t before = g_alloc_count;
    for (int q = 0; q < 50; ++q) {
      s.SampleInto(alpha, beta, rng, &buf);
      sampled += buf.size();
    }
    const std::size_t allocs = g_alloc_count - before;
    if (allocs < min_window_allocs) min_window_allocs = allocs;
    clean_window = allocs == 0;
  }
  EXPECT_TRUE(clean_window)
      << "no allocation-free window of 50 slab-scan queries; best window "
      << "had " << min_window_allocs << " allocations";
  EXPECT_GT(sampled, 50u * 16);  // μ ≈ 64: the windows really were large
}

TEST(AllocationCount, WarmedUpUpdatesAreAllocationFree) {
  // Steady-state churn: Erase hands its slot to the next Insert, SetWeight
  // patches in place or relocates between already-grown buckets, and Σw
  // maintenance runs on the u128 cache — no path should touch the heap.
  RandomEngine wrng(50);
  std::vector<uint64_t> weights(1 << 14);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  DpssSampler s(weights, 51);

  std::vector<DpssSampler::ItemId> live;
  for (uint64_t i = 0; i < weights.size(); ++i) live.push_back(i);

  RandomEngine rng(52);
  auto churn_step = [&] {
    const uint64_t op = rng.NextBelow(4);
    const size_t idx = rng.NextBelow(live.size());
    if (op == 0) {
      // Replacement churn at constant size: no rebuild can trigger.
      s.Erase(live[idx]);
      live[idx] = s.Insert(1 + rng.NextBelow(uint64_t{1} << 20));
    } else if (op == 1) {
      // Same-bucket patch.
      const uint64_t floor = uint64_t{1}
                             << s.GetWeight(live[idx]).BucketIndex();
      s.SetWeight(live[idx], floor + rng.NextBelow(floor));
    } else {
      // Random reweight, usually rebucketing.
      s.SetWeight(live[idx], 1 + rng.NextBelow(uint64_t{1} << 20));
    }
  };

  // Warm-up: grow every bucket array, the free list, and the scratch pools
  // to their steady-state capacities.
  for (int i = 0; i < 60000; ++i) churn_step();

  // Random churn keeps setting (ever rarer) bucket-occupancy records, and a
  // record that crosses a capacity boundary reallocates that bucket — an
  // amortized-O(1) structural event, not per-update overhead. The steady-
  // state claim is that whole windows of updates run allocation-free: if
  // any per-update path allocated, EVERY window would allocate thousands
  // of times and this loop could never find a clean one.
  bool clean_window = false;
  std::size_t min_window_allocs = ~std::size_t{0};
  for (int window = 0; window < 8 && !clean_window; ++window) {
    const std::size_t before = g_alloc_count;
    for (int i = 0; i < 20000; ++i) churn_step();
    const std::size_t allocs = g_alloc_count - before;
    if (allocs < min_window_allocs) min_window_allocs = allocs;
    clean_window = allocs == 0;
  }
  EXPECT_TRUE(clean_window)
      << "no allocation-free window of 20000 updates; best window had "
      << min_window_allocs << " allocations";

  // The structure is still coherent and the totals still exact.
  s.CheckInvariants();
}

TEST(AllocationCount, MixedUpdateQuerySteadyStateIsAllocationFree) {
  RandomEngine wrng(54);
  std::vector<uint64_t> weights(1 << 14);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  DpssSampler s(weights, 55);
  std::vector<DpssSampler::ItemId> live;
  for (uint64_t i = 0; i < weights.size(); ++i) live.push_back(i);

  RandomEngine rng(56);
  std::vector<DpssSampler::ItemId> buf;
  auto mixed_step = [&] {
    const size_t idx = rng.NextBelow(live.size());
    s.Erase(live[idx]);
    live[idx] = s.Insert(1 + rng.NextBelow(uint64_t{1} << 20));
    s.SetWeight(live[rng.NextBelow(live.size())],
                1 + rng.NextBelow(uint64_t{1} << 20));
    s.SampleInto({1, 4}, {0, 1}, rng, &buf);
  };
  for (int i = 0; i < 5000; ++i) mixed_step();

  // Same windowed gate as the pure-update test (see comment there).
  bool clean_window = false;
  std::size_t min_window_allocs = ~std::size_t{0};
  for (int window = 0; window < 8 && !clean_window; ++window) {
    const std::size_t before = g_alloc_count;
    for (int i = 0; i < 2000; ++i) mixed_step();
    const std::size_t allocs = g_alloc_count - before;
    if (allocs < min_window_allocs) min_window_allocs = allocs;
    clean_window = allocs == 0;
  }
  EXPECT_TRUE(clean_window)
      << "no allocation-free window of 2000 mixed update+query rounds; "
      << "best window had " << min_window_allocs << " allocations";
}

TEST(AllocationCount, ForcedBigIntPathAllocatesWhereFastPathDoesNot) {
  // Contrast measurement: the exact BigUInt path allocates on every coin
  // (std::function state in the lazy Bernoulli framework, Knuth-D division
  // temporaries), several allocations per sampled item — that overhead is
  // precisely what the u128 mirror removes. Run the same warmed-up workload
  // both ways and pin the contrast down.
  RandomEngine wrng(44);
  std::vector<uint64_t> weights(1 << 14);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  DpssSampler s(weights, 45);

  std::vector<DpssSampler::ItemId> buf;
  {
    RandomEngine rng(46);
    for (int q = 0; q < 500; ++q) s.SampleInto({1, 4}, {0, 1}, rng, &buf);
  }

  s.SetForceBigIntArithmetic(true);
  RandomEngine rng_slow(47);
  const std::size_t slow_before = g_alloc_count;
  for (int q = 0; q < 500; ++q) s.SampleInto({1, 4}, {0, 1}, rng_slow, &buf);
  const std::size_t slow_allocs = g_alloc_count - slow_before;

  s.SetForceBigIntArithmetic(false);
  RandomEngine rng_fast(47);
  const std::size_t fast_before = g_alloc_count;
  for (int q = 0; q < 500; ++q) s.SampleInto({1, 4}, {0, 1}, rng_fast, &buf);
  const std::size_t fast_allocs = g_alloc_count - fast_before;

  EXPECT_EQ(fast_allocs, 0u);
  EXPECT_GT(slow_allocs, 500u)  // well over one per query
      << "expected the exact path to allocate per coin";
}

// The sharded wrapper's query path — the dpss-serverd default — samples
// each shard at the global denominator into the shard's staging buffer,
// with the observed shard totals staged per thread, so a warmed-up query
// allocates nothing at either end of the μ range. The μ ≈ 64 gate is
// windowed for the same first-rung reason as the slab-scan test above.
TEST(AllocationCount, ShardedQueryIsAllocationFree) {
  RandomEngine wrng(70);
  std::vector<uint64_t> weights(1 << 16);
  for (auto& w : weights) w = 1 + wrng.NextBelow(uint64_t{1} << 20);
  SamplerSpec spec;
  spec.seed = 71;
  std::unique_ptr<Sampler> s = MakeSampler("sharded8:halt", spec);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->InsertBatch(weights, nullptr).ok());

  std::vector<ItemId> buf;
  for (const uint64_t mu : {uint64_t{1}, uint64_t{64}}) {
    const Rational64 alpha{1, mu};
    for (int q = 0; q < 2000; ++q) {
      ASSERT_TRUE(s->SampleInto(alpha, {0, 1}, &buf).ok());
    }

    bool clean_window = false;
    std::size_t min_window_allocs = ~std::size_t{0};
    uint64_t sampled = 0;
    for (int window = 0; window < 8 && !clean_window; ++window) {
      const std::size_t before = g_alloc_count;
      for (int q = 0; q < 50; ++q) {
        ASSERT_TRUE(s->SampleInto(alpha, {0, 1}, &buf).ok());
        sampled += buf.size();
      }
      const std::size_t allocs = g_alloc_count - before;
      if (allocs < min_window_allocs) min_window_allocs = allocs;
      clean_window = allocs == 0;
    }
    EXPECT_TRUE(clean_window)
        << "mu=" << mu << ": no allocation-free window of 50 sharded "
        << "queries; best window had " << min_window_allocs
        << " allocations";
    EXPECT_GT(sampled, 0u);
  }
}

}  // namespace
}  // namespace dpss
