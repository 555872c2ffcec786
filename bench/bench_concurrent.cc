// Concurrent throughput experiment for the sharded sampler — the first
// benchmark in the repo where the axis is ops/sec across threads, not
// ns/op on one core.
//
//   * BM_ShardedMixed_90_10 / BM_ShardedMixed_50_50: T caller threads
//     (1..16) hammer one "sharded:halt" instance (n = 2^20, 32 shards)
//     with a mixed workload — each op is a full PSS query (α, β) = (1, 0)
//     or a SetWeight to a random live id, at the stated read/write ratio.
//     Mutations lock one shard; queries sweep all shards one lock at a
//     time with rotating start offsets, so throughput scales by
//     pipelining queries across shards.
//   * BM_SingleThreadBaseline: the same instance and mix on one thread —
//     the denominator for the scaling ratio (identical to the /threads:1
//     rows; kept as an explicitly named row for cross-PR tracking).
//
// The json tee (BENCH_concurrent.json) carries, per run, the thread count
// and the aggregate ops_per_sec / samples_per_sec counters (summed across
// threads, rated against wall time). The acceptance gate for the
// concurrent subsystem reads the ratio of samples_per_sec at
// /threads:8 vs /threads:1 on the 90/10 mix. Note: the ratio is only
// meaningful on a machine with >= 8 hardware threads.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/sampler.h"
#include "util/random.h"

namespace {

constexpr uint64_t kN = uint64_t{1} << 20;
constexpr int kNumShards = 32;

struct Workload {
  std::unique_ptr<dpss::Sampler> sampler;
  std::vector<dpss::ItemId> ids;
};

Workload* g_work = nullptr;

// Thread 0 builds the shared instance before the first iteration barrier
// releases the other threads (Google Benchmark's standard multi-threaded
// setup pattern); thread 0 tears it down after the exit barrier.
void SetupShared() {
  dpss::SamplerSpec spec;
  spec.seed = 0xbeefcafe;
  spec.num_shards = kNumShards;
  auto work = std::make_unique<Workload>();
  work->sampler = dpss::MakeSampler("sharded:halt", spec);
  const std::vector<uint64_t> weights = dpss::bench::MakeWeights(
      kN, dpss::bench::WeightDist::kUniform, /*seed=*/42);
  const dpss::Status st =
      work->sampler->InsertBatch(weights, &work->ids);
  if (!st.ok()) std::abort();
  g_work = work.release();
}

void TeardownShared() {
  delete g_work;
  g_work = nullptr;
}

// One mixed-workload run: write_pct% of ops are SetWeight on a random
// live id, the rest are full queries. Per-thread engines keep the op
// stream contention-free; the sampler itself is the only shared state.
void RunMixed(benchmark::State& state, int write_pct) {
  if (state.thread_index() == 0) SetupShared();
  dpss::RandomEngine rng(0x1234u + 0x9e3779b9u *
                                       static_cast<uint64_t>(
                                           state.thread_index()));
  std::vector<dpss::ItemId> out;
  const dpss::Rational64 alpha{1, 1};
  const dpss::Rational64 beta{0, 1};
  int64_t samples = 0;
  int64_t writes = 0;
  for (auto _ : state) {
    if (rng.NextBelow(100) < static_cast<uint64_t>(write_pct)) {
      const dpss::ItemId id =
          g_work->ids[rng.NextBelow(g_work->ids.size())];
      const dpss::Status st =
          g_work->sampler->SetWeight(id, 1 + rng.NextBelow(1 << 10));
      if (!st.ok()) std::abort();
      ++writes;
    } else {
      const dpss::Status st =
          g_work->sampler->SampleInto(alpha, beta, &out);
      if (!st.ok()) std::abort();
      benchmark::DoNotOptimize(out.data());
      ++samples;
    }
  }
  // Rate counters are summed across threads and rated against wall time:
  // aggregate throughput, the number the scaling gate reads. The constant
  // descriptors use kAvgThreads so per-thread summation does not inflate
  // them.
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate);
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(samples + writes), benchmark::Counter::kIsRate);
  state.counters["threads"] = benchmark::Counter(
      static_cast<double>(state.threads()), benchmark::Counter::kAvgThreads);
  state.counters["num_shards"] = benchmark::Counter(
      kNumShards, benchmark::Counter::kAvgThreads);
  state.counters["write_pct"] = benchmark::Counter(
      write_pct, benchmark::Counter::kAvgThreads);
  if (state.thread_index() == 0) TeardownShared();
}

void BM_ShardedMixed_90_10(benchmark::State& state) {
  RunMixed(state, /*write_pct=*/10);
}
BENCHMARK(BM_ShardedMixed_90_10)->ThreadRange(1, 16)->UseRealTime();

void BM_ShardedMixed_50_50(benchmark::State& state) {
  RunMixed(state, /*write_pct=*/50);
}
BENCHMARK(BM_ShardedMixed_50_50)->ThreadRange(1, 16)->UseRealTime();

void BM_SingleThreadBaseline(benchmark::State& state) {
  RunMixed(state, /*write_pct=*/10);
}
BENCHMARK(BM_SingleThreadBaseline);

}  // namespace

int main(int argc, char** argv) {
  return dpss::bench::RunWithJsonReport(argc, argv, "BENCH_concurrent.json");
}
