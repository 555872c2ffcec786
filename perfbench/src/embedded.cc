// embed_mixed: the library called in-process from one thread — `halt`
// through MakeSampler, no server, no sharding, no WAL — so only core/,
// random/ and the Sampler interface dispatch run.

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "persist/snapshot.h"
#include "inproc.h"
#include "util.h"

namespace perfbench {

using dpss::ItemId;

void RunEmbedded(const Workload& w, const Args& a, Report* r) {
  const uint64_t n = ScaledItems(w, a);
  const dpss::SamplerSpec spec;
  r->Detail("backend", "halt");
  PinThisThread(Cpu::kClientA);

  // One set-up: generate the items, build the sampler, load it and answer
  // one query. The run sets up once before measuring and once more at the
  // start of every round, so setup_s, like every other time, is the best
  // decile over the whole run: the host's slow stretches last seconds, and
  // set-ups done back to back all fell into the same one, which made
  // setup_s take two values 40% apart. By default glibc hands a freed
  // sampler's pages back to the kernel and every set-up faults them in
  // again, whose cost on the shared host moved set-up by 50% between runs;
  // keeping freed memory in the process times the library's own work.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::vector<double> setups;
  std::vector<ItemId> out;
  struct Built {
    std::unique_ptr<dpss::Sampler> sampler;
    std::vector<uint64_t> weights;
    std::vector<ItemId> ids;
  };
  auto set_up = [&]() -> Built {
    const uint64_t t0 = NowNs();
    Built b;
    Gen gen(a.seed);
    b.weights.resize(n);
    for (uint64_t& x : b.weights) x = gen.Weight();
    auto made = dpss::MakeSamplerChecked("halt", spec);
    if (!made.ok()) {
      r->Fail(std::string("MakeSampler(halt): ") + made.status().message());
      return {};
    }
    b.ids.reserve(n);
    if (!(*made)->InsertBatch(b.weights, &b.ids).ok() ||
        !(*made)->SampleInto(w.alpha, w.beta, &out).ok()) {
      r->Fail("loading the sampler failed");
      return {};
    }
    b.sampler = std::move(*made);
    setups.push_back(SecondsSince(t0));
    return b;
  };
  Built first = set_up();
  if (first.sampler == nullptr) return;
  std::unique_ptr<dpss::Sampler> sampler = std::move(first.sampler);
  LivePool pool;
  for (size_t i = 0; i < n; ++i) pool.Add(first.ids[i], first.weights[i]);

  Gen gen(a.seed ^ 0x6a09e667f3bcc909ull);
  uint64_t ops = 0, failed = 0, queries = 0;
  double ids_returned = 0;

  // Warm-up: the same mix, unmeasured and not counted, until caches and
  // the allocator settle (the first seconds ran up to 30% slower).
  uint64_t warm_failed = 0;
  const uint64_t warm_start = NowNs();
  while (NowNs() - warm_start < static_cast<uint64_t>(a.seconds * 0.1e9)) {
    for (int k = 0; k < 256; ++k) {
      const Step step = Bind(NextStep(gen, w), pool, n);
      if (!Apply(sampler.get(), w, step, &pool, &out)) ++warm_failed;
    }
  }
  if (warm_failed != 0) {
    r->Fail(std::to_string(warm_failed) + " warm-up operations failed");
  }

  // Rounds of a set-up (its sampler is dropped), a latency slice and a
  // throughput slice. The latency slice times each library call alone and
  // checks every returned id; it comes right after the set-up, where the
  // few cache misses the set-up leaves move no percentile. The throughput
  // slice draws its steps in blocks ahead of the clock, so only the library
  // calls and the pool upkeep are timed. Each metric combines the rounds by
  // their best decile (BestDecile).
  const int rounds = std::max(5, static_cast<int>(a.seconds / 0.5));
  const uint64_t round_ns = static_cast<uint64_t>(a.seconds * 1e9 / rounds);
  std::vector<double> rates;
  LatencyWindows reads(rounds), writes(rounds);
  uint64_t bad_ids = 0;
  std::vector<Step> block(256);
  for (int round = 0; round < rounds; ++round) {
    if (set_up().sampler == nullptr) return;

    const uint64_t lat_start = NowNs();
    do {
      for (int k = 0; k < 64; ++k) {
        const Step step = Bind(NextStep(gen, w), pool, n);
        ItemId inserted = 0;
        const uint64_t t0 = NowNs();
        const bool ok = Call(sampler.get(), w, step, pool, &out, &inserted);
        const float us = static_cast<float>(NowNs() - t0) * 1e-3f;
        if (!ok) {
          ++failed;
          continue;
        }
        Record(step, inserted, &pool);
        if (step.kind == OpKind::kSample) {
          reads[round].push_back(us);
          ++queries;
          ids_returned += static_cast<double>(out.size());
          for (ItemId id : out) bad_ids += pool.Contains(id) ? 0 : 1;
        } else {
          writes[round].push_back(us);
        }
      }
      ops += 64;
    } while (NowNs() - lat_start < round_ns * 7 / 10);

    const uint64_t tput_start = NowNs();
    uint64_t tput_ops = 0, tput_ns = 0;
    do {
      for (Step& s : block) s = NextStep(gen, w);
      const uint64_t t0 = NowNs();
      for (const Step& s : block) {
        const Step step = Bind(s, pool, n);
        if (!Apply(sampler.get(), w, step, &pool, &out)) {
          ++failed;
        } else if (step.kind == OpKind::kSample) {
          ++queries;
          ids_returned += static_cast<double>(out.size());
        }
      }
      tput_ns += NowNs() - t0;
      tput_ops += block.size();
    } while (NowNs() - tput_start < round_ns * 3 / 10);
    rates.push_back(static_cast<double>(tput_ops) * 1e9 /
                    static_cast<double>(tput_ns));
    ops += tput_ops;
  }

  // Output checks against the generator's shadow.
  if (bad_ids != 0) {
    r->Fail(std::to_string(bad_ids) + " returned ids are not live");
  }
  if (!sampler->CheckInvariants().ok()) r->Fail("CheckInvariants failed");
  if (sampler->size() != pool.size()) {
    r->Fail("size " + std::to_string(sampler->size()) + " != shadow " +
            std::to_string(pool.size()));
  }
  if (!(sampler->TotalWeight() == dpss::BigUInt(pool.total()))) {
    r->Fail("TotalWeight differs from the shadow total");
  }
  CheckMeanSize(r, "sample", ids_returned, queries,
                AnalyticMu(pool.weights(), w.alpha, w.beta));

  std::string snapshot;
  if (!dpss::persist::SaveSampler(*sampler, spec, &snapshot).ok()) {
    r->Fail("SaveSampler failed");
  }

  r->Attempt(ops, failed);
  r->Metric("setup_s", BestDecile(setups, true), "s");
  r->Metric("throughput_ops_s", BestDecile(rates, false), "1/s");
  ReportLatency(r, "read", reads);
  ReportLatency(r, "write", writes);
  const double live = static_cast<double>(sampler->size());
  r->Metric("mem_bytes_per_item",
            static_cast<double>(sampler->ApproxMemoryBytes()) / live, "bytes");
  r->Metric("disk_bytes_per_item", static_cast<double>(snapshot.size()) / live,
            "bytes");
}

}  // namespace perfbench
