// NaiveDpss — the trivial DPSS baseline.
//
// Stores the items in a flat array; each query walks every item and flips
// one exact Bernoulli coin per item. O(1) updates, O(n) queries, O(n) space.
// Used by the benchmark harness (experiment E1) to exhibit the query-time
// separation from HALT, and by integration tests as an independent
// implementation of the same sampling semantics.

#ifndef DPSS_BASELINE_NAIVE_DPSS_H_
#define DPSS_BASELINE_NAIVE_DPSS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "baseline/flat_table.h"
#include "bigint/big_uint.h"
#include "bigint/rational.h"
#include "core/item_id.h"
#include "core/weight.h"
#include "util/random.h"

namespace dpss {

class NaiveDpss {
 public:
  using ItemId = dpss::ItemId;

  // `exact` selects exact rational coins (default); false uses double
  // arithmetic (biased by ~1 ulp, an order of magnitude faster) for
  // benchmarking the "what people actually write" variant.
  explicit NaiveDpss(bool exact = true) : exact_(exact) {}
  explicit NaiveDpss(const std::vector<uint64_t>& weights, bool exact = true);

  ItemId Insert(uint64_t weight);
  void Erase(ItemId id);
  // In-place weight update (the flat array makes this trivially O(1));
  // keeps the baseline API aligned with DpssSampler::SetWeight so the test
  // and benchmark harnesses can mirror update sequences one-to-one.
  void SetWeight(ItemId id, uint64_t weight);
  // Ids follow the library-wide slot+generation encoding (core/item_id.h):
  // a stale id kept past Erase fails here instead of aliasing the item
  // that later reuses the slot — the same contract as DpssSampler.
  bool Contains(ItemId id) const { return table_.ContainsId(id); }
  uint64_t GetWeight(ItemId id) const;

  uint64_t size() const { return table_.count; }
  unsigned __int128 total_weight() const { return table_.total; }
  size_t ApproxMemoryBytes() const {
    return table_.ApproxBytes() + sizeof(*this);
  }

  // Snapshot hooks for the interface backend (baseline/backends.cc): the
  // flat table is the entire item state, so serializing it captures the
  // sampler exactly.
  const FlatTable& table() const { return table_; }
  // Mutable access for the arena-image snapshot path (collection clears
  // the table's dirty-page baseline; the item state is untouched).
  FlatTable* mutable_table() { return &table_; }
  void RestoreTable(FlatTable&& t) { table_ = std::move(t); }

  std::vector<ItemId> Sample(Rational64 alpha, Rational64 beta,
                             RandomEngine& rng) const;
  // One query against an explicit parameterized total W = wnum/wden
  // (p_x = min{w(x)·wden/wnum, 1}); the core Sample wraps. wden > 0.
  std::vector<ItemId> SampleW(const BigUInt& wnum, const BigUInt& wden,
                              RandomEngine& rng) const;

 private:
  bool exact_;
  FlatTable table_;
};

}  // namespace dpss

#endif  // DPSS_BASELINE_NAIVE_DPSS_H_
