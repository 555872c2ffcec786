// RebuildDpss — a DSS-style sampler forced into the DPSS setting.
//
// The paper's motivation (§1): in DPSS every update to Σw changes every
// item's probability simultaneously, so a dynamic-subset-sampling structure
// built for fixed probabilities must be rebuilt — Ω(n) per update even with
// fixed, known (α, β). RebuildDpss makes that cost concrete: it keeps a
// BucketJumpSampler whose probabilities are w/(α·Σw+β) for a fixed (α, β)
// supplied at construction, and reconstructs it from scratch after every
// insert or delete. Benchmark experiment E3 plots its update cost against
// HALT's O(1).

#ifndef DPSS_BASELINE_REBUILD_DPSS_H_
#define DPSS_BASELINE_REBUILD_DPSS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/bucket_jump.h"
#include "baseline/flat_table.h"
#include "bigint/rational.h"
#include "core/item_id.h"
#include "util/random.h"

namespace dpss {

class RebuildDpss {
 public:
  using ItemId = dpss::ItemId;

  RebuildDpss(Rational64 alpha, Rational64 beta)
      : alpha_(alpha), beta_(beta) {}

  ItemId Insert(uint64_t weight);
  void Erase(ItemId id);
  // A weight update changes Σw and hence every probability: Ω(n) rebuild,
  // exactly like Insert/Erase. HALT's O(1) SetWeight is benchmarked against
  // this in experiment E3 (bench_update).
  void SetWeight(ItemId id, uint64_t weight);
  // Ids follow the library-wide slot+generation encoding (core/item_id.h),
  // so stale ids kept past Erase are rejected instead of aliasing.
  bool Contains(ItemId id) const { return table_.ContainsId(id); }
  uint64_t GetWeight(ItemId id) const;
  uint64_t size() const { return table_.count; }
  unsigned __int128 total_weight() const { return table_.total; }
  size_t ApproxMemoryBytes() const {
    return table_.ApproxBytes() + table_.count * kApproxRationalItemBytes +
           sizeof(*this);
  }

  // Table hooks for the interface backend (baseline/backends.cc):
  // DumpItems reads the table, and Decay rewrites every weight in one pass
  // and hands the table back through RestoreTable, which pays the
  // structure's signature Ω(n) rebuild once.
  const FlatTable& table() const { return table_; }
  FlatTable* mutable_table() { return &table_; }
  void RestoreTable(FlatTable&& t) {
    table_ = std::move(t);
    RebuildSampler();
  }

  std::vector<ItemId> Sample(RandomEngine& rng) const {
    return sampler_ == nullptr ? std::vector<ItemId>{}
                               : sampler_->Sample(rng);
  }

 private:
  void RebuildSampler();

  Rational64 alpha_;
  Rational64 beta_;
  FlatTable table_;
  std::unique_ptr<BucketJumpSampler> sampler_;
};

}  // namespace dpss

#endif  // DPSS_BASELINE_REBUILD_DPSS_H_
