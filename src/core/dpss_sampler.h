// DpssSampler — the library's public entry point for Dynamic Parameterized
// Subset Sampling (paper Theorem 1.1).
//
// Maintains a dynamic set of items with non-negative integer weights
// (general mult·2^exp weights are supported for the paper's float-weight
// regime). A query with non-negative rational parameters (α, β) returns a
// subset in which each item x appears independently with probability
//
//     p_x(α, β) = min{ w(x) / (α·Σw + β), 1 }.
//
// Guarantees (matching the paper):
//   * construction from n items: O(n);
//   * each query: O(1 + μ) expected time, μ = expected output size;
//   * each insert/delete/weight-update: O(1) worst-case, plus a global
//     rebuild when the size drifts by a factor of 2 (§4.5) — amortised O(1)
//     by default, or spread across subsequent updates in O(1) chunks when
//     Options::deamortized_rebuild is set (the paper's dynamic-array-style
//     de-amortization);
//   * space: O(n) words at all times.
//
// Item ids are safe against slot reuse: an id retained after Erase never
// aliases the item that later reuses its slot (see kIdSlotBits below).
//
// Example:
//   dpss::DpssSampler s(/*seed=*/7);
//   auto a = s.Insert(10);
//   auto b = s.Insert(90);
//   auto t = s.Sample({1, 1}, {0, 1});   // p_x = w(x) / Σw
//   s.SetWeight(b, 45);                  // O(1), id preserved
//   s.Erase(a);

#ifndef DPSS_CORE_DPSS_SAMPLER_H_
#define DPSS_CORE_DPSS_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bigint/big_uint.h"
#include "bigint/rational.h"
#include "core/halt.h"
#include "core/item_id.h"
#include "core/status.h"
#include "core/weight.h"
#include "util/random.h"

namespace dpss {

class DpssSampler {
 public:
  using ItemId = dpss::ItemId;

  // Item ids use the library-wide encoding from core/item_id.h: a slot
  // index in the low kIdSlotBits bits, a per-slot generation in the high
  // bits, bumped every time Erase frees the slot so stale ids fail
  // Contains(). The aliases below predate item_id.h and are kept for
  // compatibility.
  static constexpr int kIdSlotBits = dpss::kIdSlotBits;
  static constexpr int kIdGenerationBits = dpss::kIdGenerationBits;
  static constexpr ItemId kIdSlotMask = dpss::kIdSlotMask;
  static constexpr uint32_t kIdGenerationMask = dpss::kIdGenerationMask;

  // The dense slot index of an id — stable for the item's lifetime and
  // reused (with a fresh generation) after Erase. Apps that maintain
  // ItemId-indexed side arrays should index them by SlotIndexOf(id).
  static constexpr uint64_t SlotIndexOf(ItemId id) {
    return dpss::SlotIndexOf(id);
  }
  static constexpr uint32_t GenerationOf(ItemId id) {
    return dpss::GenerationOf(id);
  }

  struct Options {
    // Seed for the sampler-owned random engine.
    uint64_t seed = 0x5eed;
    // Spread each global rebuild across subsequent updates instead of
    // performing it in one O(n) burst (paper §4.5 de-amortization). While a
    // migration is in flight both structures are maintained, so updates cost
    // a constant factor more but stay O(1) worst-case.
    bool deamortized_rebuild = false;
    // Items copied into the new structure per update during a migration.
    // Any value >= 5 guarantees the migration finishes before the next
    // size-doubling threshold can fire.
    int migrate_per_update = 8;
  };

  explicit DpssSampler(uint64_t seed = 0x5eed) : DpssSampler(Options{seed}) {}
  explicit DpssSampler(const Options& options);

  // Bulk O(n) construction.
  explicit DpssSampler(const std::vector<uint64_t>& weights,
                       uint64_t seed = 0x5eed);
  DpssSampler(const std::vector<uint64_t>& weights, const Options& options);

  // The structure holds internal self-references (relocation listeners);
  // it is neither copyable nor movable.
  DpssSampler(const DpssSampler&) = delete;
  DpssSampler& operator=(const DpssSampler&) = delete;

  // Inserts an item with the given integer weight (0 allowed: such items
  // are simply never sampled). Returns a stable id. O(1).
  ItemId Insert(uint64_t weight);

  // Inserts an item with weight mult·2^exp — the paper's float-weight form
  // used by the Theorem 1.2 reduction. Requires exp + bitlen(mult) <=
  // kLevel1Universe.
  ItemId InsertWeight(Weight w);

  // Removes an existing item. O(1).
  void Erase(ItemId id);

  // Updates an existing item's weight in place. O(1) worst-case; the item
  // id stays valid (no generation bump), as does its slot. When the new
  // weight stays in the same level-1 bucket the entry is patched without
  // relocation or hierarchy propagation; otherwise the structure performs
  // an internal erase+reinsert that preserves the id and any in-flight
  // migration bookkeeping. Weight 0 parks the item outside the sampling
  // structure (never sampled) until a later SetWeight revives it.
  void SetWeight(ItemId id, Weight w);
  void SetWeight(ItemId id, uint64_t weight) {
    SetWeight(id, Weight::FromU64(weight));
  }

  bool Contains(ItemId id) const {
    const uint64_t slot = SlotIndexOf(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].generation == GenerationOf(id);
  }
  Weight GetWeight(ItemId id) const;

  // Number of live items (including zero-weight ones).
  uint64_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Exact Σw over live items. In the steady state Σw is maintained as a
  // u128 (see AddWeightToTotal); this refreshes the BigUInt mirror lazily —
  // a ≤2-word value, so the refresh itself never heap-allocates.
  const BigUInt& total_weight() const {
    if (!total_big_fresh_) {
      total_weight_ = BigUInt::FromU128(total_u128_);
      total_big_fresh_ = true;
    }
    return total_weight_;
  }

  // One PSS query with parameters (α, β), using the sampler's own RNG.
  std::vector<ItemId> Sample(Rational64 alpha, Rational64 beta);

  // Deterministic variant with an external engine.
  std::vector<ItemId> Sample(Rational64 alpha, Rational64 beta,
                             RandomEngine& rng) const;

  // Batched variants that reuse a caller-owned output buffer (cleared
  // first, reserved with a μ-derived hint). Together with the structure's
  // pooled query scratch this makes steady-state queries allocation-free on
  // the u128 fast path. Queries on one sampler must not run concurrently.
  void SampleInto(Rational64 alpha, Rational64 beta, std::vector<ItemId>* out);
  void SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                  std::vector<ItemId>* out) const;

  // μ_S(α, β) = Σ p_x(α, β), in double precision. O(n); diagnostics and
  // benchmark calibration only.
  double ExpectedSampleSize(Rational64 alpha, Rational64 beta) const;

  // The parameterized total weight W_S(α,β) = α·Σw + β as an exact rational.
  // Formed in u128 from the word-sized Σw when the products fit; the result
  // is the same pair of integers either way.
  void ComputeW(Rational64 alpha, Rational64 beta, BigUInt* num,
                BigUInt* den) const {
    if (!total_fast_ ||
        !ParameterizedTotalU128(total_u128_, alpha, beta, num, den)) {
      ParameterizedTotal(total_weight(), alpha, beta, num, den);
    }
  }

  // One PSS query against an explicit parameterized total W = wnum/wden
  // (p_x = min{w(x)·wden/wnum, 1}): the core that SampleInto wraps after
  // ComputeW. Callers that must adjust W beyond the (α, β) form — e.g. the
  // interface layer's lazy decay, which rescales W by the pending factor,
  // and the sharded wrapper's global denominator — compute their own
  // rational and come in here. Requires wden > 0.
  void SampleIntoW(const BigUInt& wnum, const BigUInt& wden,
                   RandomEngine& rng, std::vector<ItemId>* out) const;

  // The sampler-owned engine behind the engine-less overloads, for wrappers
  // that route every query through the engine-taking ones.
  RandomEngine& engine() { return rng_; }

  // μ for an explicit parameterized total W = wnum/wden; the core that
  // ExpectedSampleSize wraps after ComputeW.
  double ExpectedSampleSizeW(const BigUInt& wnum, const BigUInt& wden) const;

  // Draws exactly one item with probability w(x)/Σw (exact, all coins
  // rational) into *out. Returns false iff no item has non-zero weight.
  // O(1) expected after an O(#nonempty buckets) setup. The workhorse of
  // sampling without replacement at the interface layer.
  bool SampleOne(RandomEngine& rng, ItemId* out) const;

  // Appends the min(k, #nonzero) heaviest items as (id, weight) pairs,
  // sorted by weight descending (ties arbitrary). Walks the level-1
  // buckets from the heaviest down, touching O(answer + one bucket)
  // entries instead of the whole item set.
  void CollectTop(uint64_t k,
                  std::vector<std::pair<ItemId, Weight>>* out) const;

  // Appends every item with weight >= threshold as (id, weight) pairs, in
  // unspecified order; a zero threshold selects every nonzero item. Only
  // the threshold's own bucket is filtered entry-by-entry — heavier
  // buckets are taken wholesale, lighter ones skipped.
  void CollectAtLeast(Weight threshold,
                      std::vector<std::pair<ItemId, Weight>>* out) const;

  // --- Serialization ----------------------------------------------------
  // Appends a versioned binary snapshot of the item set to `out`. Item ids
  // of live items are preserved across a save/load round trip; the RNG
  // state and any in-flight migration are not (the load performs a fresh
  // O(n) bulk build).
  void Serialize(std::string* out) const;

  // Reconstructs a sampler from a snapshot. Returns kBadSnapshot (and
  // leaves `out` untouched) if the bytes are not a valid snapshot; never
  // aborts or reads out of bounds, whatever the input.
  static Status Deserialize(const std::string& bytes, const Options& options,
                            DpssSampler* out);

  // Calls fn(ItemId, Weight) for every live item, in slot order. O(n);
  // used by snapshot export and diagnostics.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (uint64_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].live) continue;
      fn(MakeId(slot, slots_[slot].generation), slots_[slot].weight);
    }
  }

  // Structural self-check; aborts on any violated invariant. O(n).
  void CheckInvariants() const;

  // Approximate heap footprint (benchmarks).
  size_t ApproxMemoryBytes() const;

  // Ablation switches (benchmark experiments A1/A2); survive rebuilds.
  void SetUseLookupTable(bool v);
  void SetInsignificantLinearScan(bool v);
  // Disables the u128 small-integer fast path (exact-arithmetic cross-check
  // switch; see HaltStructure::SetForceBigIntArithmetic). Survives rebuilds.
  void SetForceBigIntArithmetic(bool v);
  // Disables block prefetching of random words in the query walk (lockstep
  // cross-check switch; see HaltStructure::SetUseBlockRng). Survives
  // rebuilds.
  void SetUseBlockRng(bool v);

  // --- Diagnostics ------------------------------------------------------

  // Number of global rebuilds performed (amortised mode) or migrations
  // completed (de-amortized mode).
  uint64_t rebuild_count() const { return rebuild_count_; }
  // True while an incremental migration is in flight.
  bool migration_in_progress() const { return next_halt_ != nullptr; }
  // Maximum number of items copied by a single update's migration step —
  // the de-amortization guarantee made observable (<= migrate_per_update).
  uint64_t max_migration_step() const { return max_migration_step_; }
  // log2 of the current level-1 capacity.
  int level1_log2_capacity() const { return halt_->level1_log2_capacity(); }
  const HaltStructure& halt() const { return *halt_; }

 private:
  // Relocation listeners bound to one of the two location columns, so a
  // structure keeps writing to its own column across the active/next swap.
  struct LocListener : BucketStructure::RelocationListener {
    void OnRelocate(uint64_t handle, BucketStructure::Location loc) override {
      owner->slots_[SlotIndexOf(handle)].locs[column] = loc;
    }
    DpssSampler* owner = nullptr;
    int column = 0;
  };

  struct Slot {
    Weight weight;
    BucketStructure::Location locs[2];
    uint64_t in_next_epoch = 0;  // == migration_epoch_ if present in next
    uint32_t generation = 0;     // low kIdGenerationBits bits only
    bool live = false;
  };

  static constexpr ItemId MakeId(uint64_t slot, uint32_t generation) {
    return MakeItemId(slot, generation);
  }

  void Init(const std::vector<uint64_t>* weights);
  ItemId AllocateSlot(Weight w);
  void AfterUpdate();
  // Σw maintenance with a u128 fast path: while every contribution and the
  // running sum fit 128 bits, only total_u128_ is updated (the BigUInt
  // mirror refreshes lazily in total_weight()). Once the sum outgrows two
  // words, total_weight_ becomes authoritative until an erase shrinks the
  // sum back into u128 range. Same dispatch-by-value style as the query
  // fast path in halt.cc: the representation switch is value-invisible.
  void AddWeightToTotal(Weight w);
  void SubWeightFromTotal(Weight w);
  void ResetTotals() {
    total_u128_ = 0;
    total_fast_ = true;
    total_weight_ = BigUInt();
    total_big_fresh_ = true;
  }
  void RebuildAmortized(uint64_t target_size);
  void StartMigration(uint64_t target_size);
  void StepMigration();
  void FinishMigration();
  bool SizeDrifted() const {
    return nonzero_count_ > 2 * n0_ || (n0_ > 16 && nonzero_count_ < n0_ / 2);
  }
  static int CapacityLog2For(uint64_t n);

  Options options_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> free_slots_;  // slot indices, not full ids
  uint64_t live_count_ = 0;     // live items, including zero-weight
  uint64_t nonzero_count_ = 0;  // live items inside the HALT structure
  // Σw: total_u128_ is authoritative while total_fast_; total_weight_ is
  // authoritative otherwise and a lazily refreshed mirror in fast mode
  // (mutable so the const accessor can refresh it without allocating).
  unsigned __int128 total_u128_ = 0;
  bool total_fast_ = true;
  mutable BigUInt total_weight_;
  mutable bool total_big_fresh_ = true;

  LocListener listeners_[2];
  int active_ = 0;  // column/structure currently serving queries
  std::unique_ptr<HaltStructure> halt_;       // active structure
  std::unique_ptr<HaltStructure> next_halt_;  // migration target (or null)
  uint64_t migration_epoch_ = 0;
  uint64_t migration_cursor_ = 0;
  uint64_t max_migration_step_ = 0;

  uint64_t n0_ = 0;  // nonzero_count_ at the last (re)build
  uint64_t rebuild_count_ = 0;
  bool use_lookup_table_ = true;
  bool insignificant_linear_scan_ = false;
  bool force_bigint_ = false;
  bool use_block_rng_ = true;
  RandomEngine rng_;
};

}  // namespace dpss

#endif  // DPSS_CORE_DPSS_SAMPLER_H_
