// The HALT data structure: Hierarchy + Adapter + Lookup Table (paper §4).
//
// HaltStructure maintains the paper's three-level sampling hierarchy over a
// set of weighted elements:
//
//   level 1: BG-Str(S) over the real items;
//   level 2: for each level-1 group G_S(j), BG-Str(Y_j) over synthetic items
//            y_i with weight 2^{i+1}·|B_S(i)| (one per non-empty bucket);
//   level 3: for each level-2 group G_{Y_j}(k), BG-Str(Z_k) plus a packed
//            Adapter; its buckets form the final-level 4S instance answered
//            by the LookupTable.
//
// Updates propagate bottom-up in O(1): one item insert/delete changes one
// level-1 bucket size, which re-inserts one synthetic level-2 item, which
// changes at most two level-2 bucket sizes, which re-inserts at most two
// level-3 items, which updates at most four adapter counts.
//
// A query with parameterized total weight W samples, per instance, the
// insignificant instance (one bounded-geometric coin), the certain instance
// (all items, output-charged), and at most three significant groups whose
// next-level instances are solved recursively — at the final level via the
// adapter + lookup table (paper §4.4). Candidate buckets returned by a
// child are opened with ExtractItems (Algorithm 5): B-Geo/T-Geo variates
// locate potential items, each accepted with an exact rejection coin.
//
// All thresholds are group-aligned: groups entirely below the
// insignificance boundary go to the insignificant instance, groups entirely
// above the certainty boundary go to the certain instance, and every group
// in between is treated as significant (at most a constant number by
// Lemma 4.2). This covers every bucket exactly once.

#ifndef DPSS_CORE_HALT_H_
#define DPSS_CORE_HALT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/big_uint.h"
#include "bigint/u128.h"
#include "core/adapter.h"
#include "core/bucket_structure.h"
#include "core/lookup_table.h"
#include "core/weight.h"
#include "util/random.h"

namespace dpss {

// Bucket-index universes per level. Level-1 weights mult·2^exp satisfy
// exp + bitlen(mult) <= kLevel1Universe; synthetic weights add at most
// 1 + bitlen(count) bits per level.
inline constexpr int kLevel1Universe = 256;
inline constexpr int kLevel2Universe = 384;
inline constexpr int kLevel3Universe = 448;

class HaltStructure {
 public:
  using Location = BucketStructure::Location;
  using Entry = BucketStructure::Entry;

  // `level1_log2_capacity` is the paper's log2(N) with N the power-of-16
  // padded capacity (>= 4, multiple of 4). `item_listener` receives the
  // location of every inserted or relocated level-1 element.
  HaltStructure(int level1_log2_capacity,
                BucketStructure::RelocationListener* item_listener);
  ~HaltStructure();

  HaltStructure(const HaltStructure&) = delete;
  HaltStructure& operator=(const HaltStructure&) = delete;

  int level1_log2_capacity() const { return g1_; }
  // The 4S grid parameter m (= level-2 group width, Θ(log log n0)).
  int m() const { return m_; }
  // Number of 4S configuration slots K.
  int k_slots() const { return k_; }

  uint64_t size() const;
  const BucketStructure& level1() const;
  const LookupTable& lookup_table() const { return table_; }

  // Inserts an element with non-zero weight. The element's level-1 location
  // is reported through the item listener. O(1) worst case.
  void Insert(uint64_t handle, Weight w);

  // Erases the element at the given level-1 location. O(1) worst case.
  void Erase(Location loc);

  // Patches the weight of the level-1 element at `loc` in place. The new
  // weight must be non-zero and map to the same level-1 bucket as the old
  // one: the bucket's size is unchanged, so the synthetic items above it
  // keep their weights and nothing propagates up the hierarchy. O(1), no
  // relocation, no listener callback.
  void SetWeight(Location loc, Weight w);

  // Answers one PSS query with parameterized total weight W = wnum/wden:
  // every element with weight w is included in the result independently
  // with probability min{1, w/W}. W == 0 (wnum zero) selects everything.
  // Expected time O(1 + output size). Queries mutate the shared scratch
  // pool (and the engine), so despite constness two queries on one
  // structure must not run concurrently — see SampleInto.
  std::vector<uint64_t> Sample(const BigUInt& wnum, const BigUInt& wden,
                               RandomEngine& rng) const;

  // Same query, appending into a caller-owned buffer (cleared first). This
  // is the allocation-free entry point: per-query temporaries live in an
  // internal scratch pool that is reused across calls, so a warmed-up query
  // whose operands fit the u128 fast path performs zero heap allocations.
  // Queries share that scratch — do not run two queries on the same
  // structure concurrently (updates already have the same restriction).
  void SampleInto(const BigUInt& wnum, const BigUInt& wden, RandomEngine& rng,
                  std::vector<uint64_t>* out) const;

  // The thresholds a query derives from W = wnum/wden > 0 and the 4S grid
  // parameter m: ⌊log2 W⌋, ⌈log2 W⌉, and the final level's insignificance
  // threshold i1 = ⌊log2(2W/m²)⌋ − 1 (may be negative).
  struct WThresholds {
    int floor_log2_w = 0;
    int ceil_log2_w = 0;
    int i1_final = 0;
  };
  // Exact BigRational form, for any operand width.
  static WThresholds ComputeThresholds(const BigUInt& wnum,
                                       const BigUInt& wden, int m);
  // The u128 mirror: the same three integers from word arithmetic. Returns
  // false (leaving *out untouched) when wden·m² needs more than 128 bits;
  // SampleInto then uses ComputeThresholds.
  static bool ComputeThresholdsU128(U128 wnum, U128 wden, int m,
                                    WThresholds* out);

  // Exhaustive structural self-check (tests): cross-level weight and
  // location consistency, adapter windows, bitmap state. Aborts on failure.
  void CheckInvariants() const;

  // Approximate heap footprint in bytes (benchmarks).
  size_t ApproxMemoryBytes() const;

  // Aggregated slab occupancy / fragmentation counters over every bucket
  // structure in the hierarchy (benchmarks, BENCH_memory.json).
  BucketStructure::SlabStats SlabStatsTotal() const;

  // --- Ablation switches (benchmark experiments A1/A2) -------------------
  // Disables the lookup table: final-level significant buckets are then
  // sampled with one exact Bernoulli coin each (O(K) instead of O(1)).
  void SetUseLookupTable(bool v) { use_lookup_table_ = v; }
  // Replaces the bounded-geometric skip over insignificant items by a
  // linear scan with one coin per item (O(#insignificant) instead of O(1)).
  void SetInsignificantLinearScan(bool v) { insignificant_linear_scan_ = v; }
  // Disables the u128 small-integer fast path so every coin and variate
  // runs through exact BigUInt arithmetic. The fast path is a value-level
  // mirror of the BigUInt path (same bit stream, same results), so flipping
  // this must not change any query outcome for a fixed seed — the
  // equivalence tests assert exactly that.
  void SetForceBigIntArithmetic(bool v) { force_bigint_ = v; }
  // Disables the block-RNG word prefetching in the query walk (the engine
  // then steps one word at a time). Batching is stream-invisible by
  // construction — RandomEngine's block buffer serves words in generation
  // order — so flipping this must not change any query outcome for a fixed
  // seed; the equivalence tests drive both modes in lockstep.
  void SetUseBlockRng(bool v) { use_block_rng_ = v; }

 private:
  struct Instance;
  struct QueryContext;
  struct QueryScratch;

  Instance* EnsureChild(Instance* inst, int group);
  void InsertInto(Instance* inst, uint64_t handle, Weight w);
  void EraseFrom(Instance* inst, Location loc);
  void BucketSizeChanged(Instance* inst, int bucket, uint64_t old_size,
                         uint64_t new_size);

  void Query(const Instance* inst, const QueryContext& ctx,
             std::vector<uint64_t>* out) const;
  void QueryFinalLevel(const Instance* inst, const QueryContext& ctx,
                       std::vector<uint64_t>* out) const;
  void QueryInsignificant(const Instance* inst, const QueryContext& ctx,
                          int max_bucket, uint64_t coin_num,
                          const BigUInt& coin_den, U128 coin_den128,
                          std::vector<uint64_t>* out) const;
  void QueryCertain(const Instance* inst, const QueryContext& ctx,
                    int min_bucket, std::vector<uint64_t>* out) const;
  void ExtractItems(const Instance* inst,
                    const std::vector<uint64_t>& candidate_buckets,
                    const QueryContext& ctx, std::vector<uint64_t>* out) const;

  void CheckInstanceInvariants(const Instance* inst) const;
  size_t InstanceBytes(const Instance* inst) const;

  int g1_;  // level-1 group width = log2(level-1 capacity)
  int g2_;  // level-2 group width = log2(level-2 capacity)
  int m_;   // 4S grid parameter (= g2_)
  int k_;   // 4S slots
  bool use_lookup_table_ = true;
  bool insignificant_linear_scan_ = false;
  bool force_bigint_ = false;
  bool use_block_rng_ = true;
  LookupTable table_;
  // One shared relocatable arena holds the slab/header/bitmap storage of
  // every BucketStructure in the hierarchy. Behind a unique_ptr so its
  // address is stable for the instances borrowing it; declared before
  // root_ so it outlives them.
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<Instance> root_;
  // Per-query temporaries, pooled across calls (see SampleInto).
  mutable std::unique_ptr<QueryScratch> scratch_;
};

}  // namespace dpss

#endif  // DPSS_CORE_HALT_H_
