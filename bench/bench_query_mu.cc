// Experiment E2 — query time vs expected output size μ at fixed n.
//
// Paper claim (Theorem 4.8 / Lemma 4.11): query time is O(1 + μ). Expected
// shape: an affine line in μ — a constant dispatch cost plus a per-output
// cost.
//
// Queries run through DpssSampler::SampleInto (BM_ShardedQueryByMu: the
// Sampler interface) with a reused output buffer:
// on the u128 fast path a warmed-up query performs zero heap allocations,
// so the numbers here measure arithmetic, not the allocator. Results are
// also written to BENCH_query_mu.json for cross-PR tracking (compare two
// runs with tools/bench_diff).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/dpss_sampler.h"
#include "core/sampler.h"

namespace {

constexpr uint64_t kN = 1 << 20;

// Shared measurement loop; `force_bigint` selects the exact-arithmetic
// ablation reference for the u128 fast path (the distribution is identical
// by construction, only the arithmetic differs).
void RunQueryByMu(benchmark::State& state, bool force_bigint) {
  const uint64_t mu = state.range(0);
  const auto weights =
      dpss::bench::MakeWeights(kN, dpss::bench::WeightDist::kUniform, 1);
  dpss::DpssSampler s(weights, 2);
  s.SetForceBigIntArithmetic(force_bigint);
  dpss::RandomEngine rng(3);
  const dpss::Rational64 alpha = dpss::bench::AlphaForMu(mu);
  std::vector<dpss::DpssSampler::ItemId> out;
  uint64_t out_items = 0;
  for (auto _ : state) {
    s.SampleInto(alpha, {0, 1}, rng, &out);
    out_items += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  const double realized =
      static_cast<double>(out_items) / static_cast<double>(state.iterations());
  state.counters["mu"] = realized;
  state.counters["n"] = static_cast<double>(kN);
  state.SetItemsProcessed(static_cast<int64_t>(out_items));
}

void BM_HaltQueryByMu(benchmark::State& state) {
  RunQueryByMu(state, /*force_bigint=*/false);
}
BENCHMARK(BM_HaltQueryByMu)
    ->Arg(1)
    ->Arg(4)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1 << 12);

void BM_HaltQueryByMuBigInt(benchmark::State& state) {
  RunQueryByMu(state, /*force_bigint=*/true);
}
BENCHMARK(BM_HaltQueryByMuBigInt)->Arg(1)->Arg(32)->Arg(1024);

// μ < 1 regime: queries usually return nothing; the claim is O(1), i.e.
// flat time regardless of how tiny μ gets (β sweeps the denominator up).
void BM_HaltQuerySubOne(benchmark::State& state) {
  const int beta_log2 = static_cast<int>(state.range(0));
  const auto weights =
      dpss::bench::MakeWeights(kN, dpss::bench::WeightDist::kUniform, 4);
  dpss::DpssSampler s(weights, 5);
  dpss::RandomEngine rng(6);
  const dpss::Rational64 beta{uint64_t{1} << beta_log2, 1};
  std::vector<dpss::DpssSampler::ItemId> out;
  for (auto _ : state) {
    s.SampleInto({0, 1}, beta, rng, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["mu"] = s.ExpectedSampleSize({0, 1}, beta);
  state.counters["n"] = static_cast<double>(kN);
}
BENCHMARK(BM_HaltQuerySubOne)->DenseRange(36, 60, 6);

// The sharded wrapper (the dpss-serverd default backend) through the
// Sampler interface, against unsharded "halt" through the same interface
// (shards:0). Every shard is sampled at the global denominator, so the
// cost should be K per-shard floors plus the O(μ) output work: the μ≈0
// rows (β = 2^62, μ ≈ 2^-22) isolate the floor, and μ=64 is the
// sharded-vs-halt gate (sharded8 within 1.5× of shards:0).
void BM_ShardedQueryByMu(benchmark::State& state) {
  const int64_t shards = state.range(0);
  const uint64_t mu = static_cast<uint64_t>(state.range(1));
  const auto weights =
      dpss::bench::MakeWeights(kN, dpss::bench::WeightDist::kUniform, 1);
  dpss::SamplerSpec spec;
  spec.seed = 2;
  const std::string name =
      shards == 0 ? "halt" : "sharded" + std::to_string(shards) + ":halt";
  std::unique_ptr<dpss::Sampler> s = dpss::MakeSampler(name, spec);
  if (s == nullptr || !s->InsertBatch(weights, nullptr).ok()) {
    state.SkipWithError("building the sampler failed");
    return;
  }
  const dpss::Rational64 alpha =
      mu == 0 ? dpss::Rational64{1, 1} : dpss::bench::AlphaForMu(mu);
  const dpss::Rational64 beta =
      mu == 0 ? dpss::Rational64{uint64_t{1} << 62, 1}
              : dpss::Rational64{0, 1};
  std::vector<dpss::ItemId> out;
  uint64_t out_items = 0;
  for (auto _ : state) {
    if (!s->SampleInto(alpha, beta, &out).ok()) {
      state.SkipWithError("query failed");
      return;
    }
    out_items += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["mu"] =
      static_cast<double>(out_items) / static_cast<double>(state.iterations());
  state.counters["n"] = static_cast<double>(kN);
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedQueryByMu)
    ->ArgNames({"shards", "mu"})
    ->ArgsProduct({{0, 8, 32}, {0, 1, 64}});

}  // namespace

int main(int argc, char** argv) {
  return dpss::bench::RunWithJsonReport(argc, argv, "BENCH_query_mu.json");
}
