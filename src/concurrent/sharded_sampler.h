/// \file
/// \brief Thread-safe sharded wrapper over any registered `dpss::Sampler`
/// backend.
///
/// `ShardedSampler` partitions the item set across K shards, each owning an
/// independent inner sampler from the backend registry guarded by its own
/// reader-writer lock. Mutations touch exactly one shard (writers on
/// disjoint shards never contend); queries visit every shard — a PSS query
/// must give *every* item its independent inclusion chance — taking each
/// shard's lock one at a time, so concurrent queries pipeline across
/// shards instead of serializing globally.
///
/// The wrapper stays **exactly weighted** even though no global lock ever
/// freezes a cross-shard snapshot: each shard is sampled by its inner
/// backend's explicit-denominator query (`Sampler::SampleIntoW`) directly
/// at the global denominator α·(W_s + Σ_{t≠s} W̃_t) + β, with the shard's
/// true total W_s read under its lock and the other shards' lock-free
/// published totals W̃_t. A query costs K per-shard floors plus O(μ). In
/// a quiescent sampler this is the single-structure distribution; under
/// concurrent writes every item is still included with probability
/// `min{w / (α·W̃ + β), 1}` for a global total W̃ inside the concurrent
/// window. See `docs/CONCURRENCY.md` for the argument. The inner backend
/// must be parameterized ("halt", "naive"): fixed-(α, β) inners and nested
/// wrappers are rejected at construction with `kInvalidArgument`.
///
/// Construction goes through the registry: `MakeSampler("sharded:halt",
/// spec)` (shard count from `SamplerSpec::num_shards`) or
/// `MakeSampler("sharded8:halt", spec)` (count embedded in the name).

#ifndef DPSS_CONCURRENT_SHARDED_SAMPLER_H_
#define DPSS_CONCURRENT_SHARDED_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/sampler.h"

namespace dpss {

/// Concurrency-safe sampler that shards items over K inner backends.
///
/// \par Sharding
/// An item inserted into shard `s` with inner slot `t` gets the global id
/// slot `t·K + s`, so `SlotIndexOf(id) % K` recovers the owning shard and
/// ids from different shards never collide. Generations pass through
/// unchanged, preserving the library-wide stale-id guarantee. Inserts are
/// routed to the least-loaded shard (ties to the lowest index), which both
/// balances the shards and reuses freed slots.
///
/// \par Thread safety
/// All methods, including the non-`const` ones, may be called from any
/// number of threads concurrently. Mutations and queries take the owning
/// shard's writer lock; `Contains`/`GetWeight`/`TotalWeight` take reader
/// locks; `size()` is lock-free. Queries need the writer lock because the
/// inner backends' query paths reuse per-structure scratch state (HALT's
/// pooled `QueryScratch`) — see `docs/CONCURRENCY.md` for the per-backend
/// table.
///
/// \par Capabilities
/// `parameterized`, `float_weights`, `snapshots`, `decay`,
/// `sample_distinct` and `top_k` follow the inner backend, and
/// `concurrent_queries` is always set —
/// Serialize/Restore capture every shard as its own section,
/// locking one shard at a time (see those methods for the consistency
/// contract). `expected_size` is not offered (it would need a frozen
/// cross-shard cut per query, a documented non-goal), and neither is
/// `SampleIntoW` (the wrapper is never itself an inner backend).
class ShardedSampler final : public Sampler {
 public:
  /// One shard's occupancy as reported by ShardOccupancy(): the live-item
  /// count and the shard's Σw. `total_weight_big` is set when the shard's
  /// exact total outgrew 128 bits (the float-weight regime);
  /// `total_weight_double` is always the best double rendering of the
  /// total (exports and dashboards need a number, not a BigUInt).
  struct ShardStats {
    uint64_t live = 0;              ///< Live items in the shard.
    double total_weight_double = 0; ///< Shard Σw as a double.
    bool total_weight_big = false;  ///< True iff Σw exceeds 128 bits.
  };

  /// Hard upper bound on `SamplerSpec::num_shards` (sanity bound; the id
  /// encoding itself supports far more).
  static constexpr int kMaxShards = 4096;

  /// Builds a sharded sampler whose shards are `inner_name` backends
  /// created through the registry (each with a distinct derived seed).
  ///
  /// \param registry_key The full name this instance was requested under
  ///   (returned verbatim by name()), e.g. "sharded8:halt".
  /// \param inner_name Registry key of the per-shard backend ("halt", ...).
  /// \param num_shards Shard count K; must be in [1, kMaxShards].
  /// \param spec Forwarded to every inner backend (seeds are re-derived
  ///   per shard).
  /// \return The sampler, or `kInvalidArgument` naming the offending spec
  ///   field, an inner backend that cannot be sharded (fixed-(α, β) or
  ///   itself sharded), or an error from the inner backend's own
  ///   construction.
  static StatusOr<std::unique_ptr<Sampler>> Create(
      const std::string& registry_key, const std::string& inner_name,
      int num_shards, const SamplerSpec& spec);

  /// The registry key this instance was created under.
  const char* name() const override;
  /// Inner backend capabilities minus expected-size, plus
  /// `concurrent_queries` (see class docs).
  Capabilities capabilities() const override;

  /// Inserts into the least-loaded shard under its writer lock. O(K) to
  /// pick the shard, then the inner backend's insert cost.
  StatusOr<ItemId> Insert(uint64_t weight) override;
  /// Float-form insert, same routing and locking as Insert.
  StatusOr<ItemId> InsertWeight(Weight w) override;
  /// Erases under the owning shard's writer lock. `kInvalidId` for
  /// unknown/stale ids, as everywhere.
  Status Erase(ItemId id) override;
  /// Updates a weight under the owning shard's writer lock.
  Status SetWeight(ItemId id, Weight w) override;

  /// Reader-locked id check on the owning shard.
  bool Contains(ItemId id) const override;
  /// Reader-locked weight lookup on the owning shard.
  StatusOr<Weight> GetWeight(ItemId id) const override;
  /// Lock-free: sums the per-shard live counters (each exact; the sum is a
  /// consistent value whenever no mutation is in flight).
  uint64_t size() const override;
  /// Exact Σw: sums the per-shard totals under reader locks, one shard at
  /// a time (cross-shard consistency under concurrent writes is bounded by
  /// the concurrent window, not a frozen cut).
  BigUInt TotalWeight() const override;

  /// One exactly-weighted PSS query using per-shard engines, drained on
  /// the calling thread; shards are visited starting at a rotating offset
  /// so concurrent callers pipeline across them.
  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override;
  /// Deterministic variant: shards are visited in index order, all coins
  /// drawn from the caller's engine.
  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override;

  /// Rewrites every shard's weights to `FloorScaleWeight(w, factor)`,
  /// eagerly (O(n)) even on "halt", in index order under each writer lock
  /// and republishing each shard total. The wrapper thus samples by its
  /// reported (floored) weights, where a bare "halt" applies a pending
  /// factor exactly. On an inner error the already-visited shards keep
  /// their decayed weights (the base contract's partial-application
  /// caveat).
  Status Decay(Rational64 factor) override;

  /// Exact cross-shard sampling without replacement. Holds *every*
  /// shard's writer lock for the whole call (the one place shard locks
  /// nest — acquired in index order), because without-replacement draws
  /// couple the shards through the already-drawn items: each round picks
  /// the owning shard with probability T_s/T and delegates one distinct
  /// draw to it, giving the single-structure marginal w_x/T exactly; the
  /// drawn item is then parked (weight zero) until the call completes.
  Status SampleDistinct(uint64_t k, std::vector<ItemId>* out) override;

  /// Global top-k: each shard reports its own top-k under its writer
  /// lock (the global top-k is a subset of the union), then one merge
  /// sort keeps the k heaviest.
  Status TopK(uint64_t k, std::vector<ItemId>* out) const override;

  /// Concatenation of every shard's ItemsAbove, ids translated to the
  /// global slot space.
  Status ItemsAbove(Weight threshold,
                    std::vector<ItemId>* out) const override;

  /// Snapshots every shard's inner sampler as a length-prefixed per-shard
  /// section, taking each shard's lock in turn. Under concurrent mutation
  /// the result is a *per-shard-consistent* cut (each shard internally
  /// exact, shards captured at slightly different instants); quiesce
  /// writers for a globally exact cut. `kUnsupported` when the inner
  /// backend has no snapshot format.
  Status Serialize(std::string* out) const override;
  /// Restores all shards from a Serialize image. The image must have been
  /// taken from the same configuration (shard count and inner backend);
  /// `kBadSnapshot` otherwise, with the current state untouched — fresh
  /// inner samplers are fully built from the image before any shard is
  /// swapped. A "halt" section's pending decay factor is materialized.
  Status Restore(const std::string& bytes) override;
  /// Collects every shard's arena images in shard order (each shard's
  /// images are contiguous), taking each shard's lock in turn — the same
  /// per-shard-consistent cut contract as Serialize. All shards must
  /// report the same image count; `kUnsupported` when the inner backend
  /// has no arena-image storage.
  Status CollectArenaImages(ArenaImageMode mode,
                            std::vector<ArenaImage>* out) override;
  /// Restores all shards from a CollectArenaImages capture. The image
  /// count must be a multiple of the shard count (consecutive runs map to
  /// shards in order); fresh inner samplers are fully built before any
  /// shard is swapped, so a bad image leaves the state untouched.
  Status RestoreFromArenas(std::vector<ArenaLoad>&& loads) override;
  /// Every live item across all shards, ids translated to the global slot
  /// space; shard-by-shard under exclusive locks (inner backends' const
  /// methods may touch scratch state — the library-wide caveat).
  Status DumpItems(std::vector<ItemRecord>* out) const override;

  /// Per-shard occupancy (live items and Σw), one row per shard in shard
  /// order. Lock-free: live counts are the relaxed per-shard counters and
  /// totals come from the seqlock-published copies (falling back to a
  /// brief reader lock only for shards in the big-total regime), so a
  /// metrics exporter can call this at any rate without perturbing the
  /// serving path. Each row is individually exact; the cross-shard view is
  /// as consistent as any unlocked sweep (bounded by the concurrent
  /// window).
  std::vector<ShardStats> ShardOccupancy() const;

  /// Verifies every inner backend's invariants plus the wrapper's own
  /// bookkeeping (cached totals == inner totals, live counters, published
  /// values). Takes each shard's writer lock in turn.
  Status CheckInvariants() const override;
  /// Sum of the inner backends' footprints plus the wrapper's shard state.
  size_t ApproxMemoryBytes() const override;
  /// Name, size, total weight and shard count.
  std::string DebugString() const override;

 private:
  // One shard: the inner sampler plus everything needed to mutate and
  // query it without touching any other shard. `total` is the wrapper's
  // own exact Σw of the shard (inner TotalWeight() is not safe to call
  // under a reader lock for every backend — see CONCURRENCY.md), written
  // only under the exclusive lock; the pub_* fields are its lock-free
  // published copy (single-writer seqlock, acquire/release only).
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::unique_ptr<Sampler> inner;
    BigUInt total;
    RandomEngine rng{0};  // used only under the exclusive lock
    // Inner-query staging reused across queries (capacity warms up once);
    // touched only under the exclusive lock, like rng.
    mutable std::vector<ItemId> query_buf;
    std::atomic<uint64_t> live_count{0};
    std::atomic<uint64_t> pub_seq{0};
    std::atomic<uint64_t> pub_lo{0};
    std::atomic<uint64_t> pub_hi{0};
    // True when `total` outgrew two words; readers then fall back to a
    // reader-locked copy of `total` (float-weight regime only).
    std::atomic<bool> pub_big{false};
  };

  ShardedSampler(std::string registry_key, std::string inner_name,
                 int num_shards, const SamplerSpec& spec);

  uint64_t PickShard() const;
  void DecodeId(ItemId id, uint64_t* shard, ItemId* inner_id) const;
  ItemId TranslateOut(uint64_t shard, ItemId inner_id) const;

  // Republishes shard.total through the seqlock. Caller holds the
  // exclusive lock (single writer).
  static void PublishTotalLocked(Shard& shard);
  // Lock-free read of a shard's published total; falls back to a
  // reader-locked copy while the shard is in the big-total regime.
  static BigUInt ReadShardTotal(const Shard& shard);

  // Samples shard s under its exclusive lock at the global denominator
  // α·(W_s + rest) + β, where `rest` is the other shards' published mass,
  // and appends the translated ids to *out. A null `rng` selects the
  // shard's own engine.
  Status DrainShard(uint64_t s, const BigUInt& rest, Rational64 alpha,
                    Rational64 beta, RandomEngine* rng,
                    std::vector<ItemId>* out) const;
  // The one query path behind both SampleInto overloads: a null `rng`
  // rotates the visiting order; a caller engine visits shards in index
  // order with that engine.
  Status Query(Rational64 alpha, Rational64 beta, RandomEngine* rng,
               std::vector<ItemId>* out) const;

  const std::string key_;
  // Inner backend name and construction spec, kept so Restore can build
  // fresh per-shard samplers before swapping them in.
  const std::string inner_name_;
  const SamplerSpec spec_;
  const uint64_t num_shards_;
  Capabilities caps_{};
  mutable std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> query_offset_{0};
};

namespace internal_registry {

/// Registry hook for the `"sharded[K]:<inner>"` grammar, implemented in
/// `src/concurrent/sharded_sampler.cc` and called by `MakeSamplerChecked`.
StatusOr<std::unique_ptr<Sampler>> MakeShardedSampler(
    const std::string& registry_key, const std::string& inner_name,
    int num_shards, const SamplerSpec& spec);

}  // namespace internal_registry

}  // namespace dpss

#endif  // DPSS_CONCURRENT_SHARDED_SAMPLER_H_
