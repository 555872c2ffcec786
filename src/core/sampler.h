/// \file
/// \brief `dpss::Sampler` — the unified, backend-agnostic interface over
/// every subset-sampling structure in the repo, plus its backend registry.
///
/// The library carries the paper's HALT structure (`DpssSampler`, Theorem
/// 1.1), four baselines it is measured against (`NaiveDpss`, `RebuildDpss`,
/// `OdssSampler`, `BucketJumpSampler`), and a thread-safe sharding wrapper
/// (`ShardedSampler`) that composes over any of them. Historically each had
/// its own ad-hoc API, so every test, benchmark, example and the CLI
/// re-implemented per-backend driver code. `Sampler` gives them one surface:
///
/// \code
///   dpss::SamplerSpec spec;
///   spec.seed = 7;
///   auto s = dpss::MakeSampler("halt", spec);          // or "naive", ...
///   auto id = s->Insert(10);                            // StatusOr<ItemId>
///   if (!id.ok()) { /* recoverable: no abort */ }
///   std::vector<dpss::ItemId> out;
///   dpss::Status st = s->SampleInto({1, 1}, {0, 1}, &out);
/// \endcode
///
/// **Error surface:** all interface mutators return Status/StatusOr and
/// never abort on caller misuse (stale ids, overflowing weights,
/// unsupported operations, corrupt snapshots). DPSS_CHECK remains in the
/// concrete structures for *internal* invariants only.
///
/// **Capability flags:** the baselines intentionally do not implement the
/// full DPSS feature set (that gap is the paper's point). A fixed-(α, β)
/// backend answers queries only for the (α, β) given in its SamplerSpec and
/// returns kUnsupported for any other parameters; capabilities() lets
/// generic drivers (the contract test suite, the CLI) adapt instead of
/// hard-coding backend names.
///
/// **Thread safety:** unless a backend documents otherwise, one `Sampler`
/// instance must not be used from multiple threads at the same time — not
/// even through the `const` methods, whose implementations may touch
/// per-structure scratch state. The `"sharded[K]:<inner>"` wrapper
/// (`concurrent/sharded_sampler.h`) is the concurrency-safe composition:
/// all of its methods may race freely. `docs/CONCURRENCY.md` has the
/// per-backend table.

#ifndef DPSS_CORE_SAMPLER_H_
#define DPSS_CORE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bigint/big_uint.h"
#include "bigint/rational.h"
#include "core/arena.h"
#include "core/item_id.h"
#include "core/status.h"
#include "core/weight.h"
#include "util/random.h"

/// \namespace dpss
/// \brief Dynamic Parameterized Subset Sampling: the HALT structure, its
/// baselines, and the backend-agnostic interface layer over them.
namespace dpss {

namespace persist {
class SnapshotWriter;  // persist/snapshot.h
}  // namespace persist

/// Construction-time options understood by the registered backends.
///
/// Fields a backend has no use for are ignored (for example `fixed_alpha`
/// on the parameterized `"halt"`/`"naive"` backends, or `num_shards` on
/// anything but the sharded wrapper) — reusing one spec across backends is
/// deliberate and cheap. *Malformed* values, by contrast, are rejected at
/// construction: `MakeSamplerChecked` returns `kInvalidArgument` with a
/// message naming the offending field (zero-denominator fixed parameters,
/// an out-of-range shard count, a `migrate_per_update` that cannot
/// keep a de-amortized migration ahead of the next rebuild threshold).
struct SamplerSpec {
  /// Seed for the sampler-owned random engine. Any value is valid; equal
  /// seeds give bit-identical single-threaded behaviour.
  uint64_t seed = 0x5eed;
  /// `"halt"`: spread global rebuilds across updates (paper §4.5).
  bool deamortized_rebuild = false;
  /// `"halt"`: items migrated per update while a rebuild is in flight.
  /// Must be >= 1; with `deamortized_rebuild` it must be >= 5, the minimum
  /// that provably finishes a migration before the next size-doubling
  /// threshold can fire.
  int migrate_per_update = 8;
  /// Fixed query parameter α for the non-parameterized backends
  /// (`"rebuild"`, `"odss"`, `"bucket_jump"`): they maintain the
  /// probabilities w/(α·Σw + β) and only answer queries for exactly this
  /// (α, β). The denominator must be non-zero.
  Rational64 fixed_alpha{1, 1};
  /// Fixed query parameter β; see `fixed_alpha`.
  Rational64 fixed_beta{0, 1};
  /// `"sharded:<inner>"`: number of shards K, in [1, 4096]. A
  /// `"sharded<K>:<inner>"` registry name overrides this field.
  int num_shards = 8;
};

/// A tagged mutation record for Sampler::ApplyBatch.
struct Op {
  /// Which mutation this record encodes.
  enum class Kind : uint8_t {
    kInsert,     ///< Insert a new item with weight `weight`.
    kErase,      ///< Erase the live item `id`.
    kSetWeight,  ///< Set the live item `id`'s weight to `weight`.
    /// Multiply every weight by a factor in (0, 1] (Sampler::Decay). The
    /// factor's numerator rides in `id` and its denominator in
    /// `weight.mult`, so the record fits the fixed WAL op layout
    /// (persist/wal.h) without a format bump.
    kDecay
  };

  Kind kind = Kind::kInsert;  ///< Mutation tag.
  ItemId id = 0;    ///< kErase / kSetWeight target; ignored for kInsert.
  Weight weight{};  ///< kInsert / kSetWeight payload; ignored for kErase.

  /// An insert op with float-form weight `w`.
  static Op Insert(Weight w) { return {Kind::kInsert, 0, w}; }
  /// An insert op with integer weight `w`.
  static Op Insert(uint64_t w) { return Insert(Weight::FromU64(w)); }
  /// An erase op targeting `id`.
  static Op Erase(ItemId id) { return {Kind::kErase, id, Weight{}}; }
  /// A weight-update op setting `id` to float-form weight `w`.
  static Op SetWeight(ItemId id, Weight w) {
    return {Kind::kSetWeight, id, w};
  }
  /// A weight-update op setting `id` to integer weight `w`.
  static Op SetWeight(ItemId id, uint64_t w) {
    return SetWeight(id, Weight::FromU64(w));
  }
  /// A decay op scaling every weight by `factor` (see Sampler::Decay).
  static Op Decay(Rational64 factor) {
    return {Kind::kDecay, factor.num, Weight(factor.den, 0)};
  }
  /// The factor carried by a kDecay op (the inverse of the Decay factory).
  Rational64 DecayFactor() const { return {id, weight.mult}; }
};

/// One live item as reported by Sampler::DumpItems: its id (slot +
/// generation) and current weight. The portable currency of the generic
/// snapshot fallback and cross-backend export (persist/snapshot.h).
struct ItemRecord {
  ItemId id = 0;    ///< The item's id in the dumping sampler.
  Weight weight{};  ///< Its weight at dump time (may be zero: parked).
};

/// Backend-agnostic dynamic weighted subset sampler.
///
/// Maintains a dynamic set of weighted items; a query with non-negative
/// rational parameters (α, β) returns a subset in which each item x
/// appears independently with probability `min{w(x)/(α·Σw + β), 1}`.
/// Instances come from MakeSampler()/MakeSamplerChecked() and are neither
/// copyable nor movable.
///
/// \par Thread safety
/// Thread-compatible, not thread-safe: distinct instances may be used from
/// distinct threads freely, but one instance must be externally
/// synchronized — including its `const` queries, which may reuse internal
/// scratch state. The `"sharded[K]:<inner>"` backend lifts this
/// restriction (every method internally synchronized).
class Sampler {
 public:
  /// What a backend implements beyond the universal core (insert/erase/
  /// set-weight/contains/size/total-weight/sample at the spec's (α, β)).
  /// Operations behind a false flag return kUnsupported instead of
  /// aborting, so generic drivers can probe instead of hard-coding names.
  struct Capabilities {
    /// Per-query (α, β): any non-negative rationals, changing per call.
    /// False: only the SamplerSpec's fixed (α, β) is answered.
    bool parameterized = false;
    /// Weights mult·2^exp beyond uint64 (the paper's float-weight regime).
    bool float_weights = false;
    /// Serialize/Restore: a native snapshot format that keeps ids. The one
    /// persistence rule: SaveSampler and RecoveryManager::Open accept a
    /// backend only with this flag (WAL replay re-derives every logged
    /// id). The fixed-(α, β) comparators clear it and are in-memory only.
    bool snapshots = false;
    /// CheckInvariants performs a deep structural audit (otherwise it is a
    /// cheap bookkeeping cross-check).
    bool deep_invariants = false;
    /// ExpectedSampleSize is implemented.
    bool expected_size = false;
    /// CollectArenaImages/RestoreFromArenas: the backend's full item state
    /// lives in relocatable arenas (core/arena.h), so snapshots can be raw
    /// page images (the v2 format) and checkpoints can be incremental.
    /// Implies `snapshots`.
    bool arena_image = false;
    /// Decay(factor) multiplies every weight by a rational in (0, 1] —
    /// O(1) metadata on "halt" (the factor folds into the (α, β)
    /// parameterization), an honest O(n) weight rewrite elsewhere.
    bool decay = false;
    /// SampleDistinct(k) draws k distinct items by successive weighted
    /// sampling without replacement.
    bool sample_distinct = false;
    /// TopK/ItemsAbove rank or threshold items by weight without the
    /// caller dumping and sorting the whole set.
    bool top_k = false;
    /// The own-engine SampleInto may run on several threads at once while
    /// no mutation is in flight (read parallelism comes from concurrent
    /// callers; a server may run queued queries on a pool).
    bool concurrent_queries = false;
  };

  virtual ~Sampler() = default;

  /// Not copyable (backends hold engines and internal self-references).
  Sampler(const Sampler&) = delete;
  /// Not assignable.
  Sampler& operator=(const Sampler&) = delete;

  /// Registry key this instance was created under ("halt", "naive",
  /// "sharded8:halt", ...). The pointer stays valid for the sampler's
  /// lifetime.
  virtual const char* name() const = 0;
  /// The feature set this backend implements; see Capabilities.
  virtual Capabilities capabilities() const = 0;

  // --- Mutations --------------------------------------------------------

  /// Inserts an item with the given integer weight (0 allowed: such items
  /// are never sampled but count toward size()).
  /// \return A stable id for the new item, or `kWeightOverflow` if the
  ///   backend cannot represent the weight. O(1) for "halt"; see the
  ///   backend table in docs/ARCHITECTURE.md for the baselines.
  virtual StatusOr<ItemId> Insert(uint64_t weight) = 0;

  /// Inserts an item with float-form weight mult·2^exp. Backends without
  /// `capabilities().float_weights` accept it only when the value fits a
  /// uint64 (`kWeightOverflow` otherwise); "halt" accepts the full level-1
  /// universe (exp + log2(mult) < 256).
  /// \return The new item's id, or `kWeightOverflow`.
  virtual StatusOr<ItemId> InsertWeight(Weight w) = 0;

  /// Removes a live item.
  /// \return `kInvalidId` for ids that were never issued, were already
  ///   erased, or carry a stale generation; the sampler is unchanged then.
  virtual Status Erase(ItemId id) = 0;

  /// Updates a live item's weight in place; the id stays valid. Weight 0
  /// parks the item (never sampled) until a later SetWeight revives it.
  /// \return `kInvalidId` for unknown/stale ids, `kWeightOverflow` if the
  ///   backend cannot represent `w`; the item is unchanged on error.
  virtual Status SetWeight(ItemId id, Weight w) = 0;
  /// \overload
  Status SetWeight(ItemId id, uint64_t weight) {
    return SetWeight(id, Weight::FromU64(weight));
  }

  /// Multiplies every live item's weight by `factor`, a rational in
  /// (0, 1] (`1 <= num <= den`) — the time-decay primitive of streaming
  /// workloads. Each item's new weight is `FloorScaleWeight(w, factor)`:
  /// the multiplier scales and floors, the exponent is preserved, and a
  /// weight that floors to 0 is parked (the id stays valid). On "halt" the
  /// call is O(1): the factor folds into the (α, β) parameterization as
  /// pending metadata, applied exactly (no flooring) by every subsequent
  /// query and materialized lazily — see the backend notes in
  /// docs/WORKLOADS.md. Other built-in backends rewrite the weights
  /// eagerly in O(n) (one deferred rebuild/refresh, not one per item).
  /// \return `kInvalidArgument` for a zero numerator/denominator or a
  ///   factor above 1; `kUnsupported` unless `capabilities().decay`. An
  ///   error from an individual weight rewrite (cannot happen for the
  ///   built-in backends) may leave the decay partially applied, like a
  ///   failing ApplyBatch.
  virtual Status Decay(Rational64 factor);

  // --- Batched mutations ------------------------------------------------

  /// Inserts `weights.size()` items, appending their ids to `*ids` (which
  /// may be null if the caller does not need them). Equivalent to a loop
  /// of Insert but lets backends amortize per-op overhead (the lazy
  /// rebuild-style baselines defer their Ω(n) reconstruction to once per
  /// batch).
  /// \return The first failing insert's error, with earlier inserts left
  ///   applied; Ok otherwise.
  virtual Status InsertBatch(std::span<const uint64_t> weights,
                             std::vector<ItemId>* ids);

  /// Applies the ops in order. Ids of successful kInsert ops are appended
  /// to `*inserted_ids` when non-null. When `num_applied` is non-null it
  /// receives the count of ops that applied successfully — on success that
  /// is `ops.size()`; on error it tells the caller (notably the
  /// write-ahead log in persist/recovery.h) exactly which prefix of the
  /// batch mutated the sampler.
  /// \return On the first failing op, that op's error — the batch stops
  ///   and earlier ops stay applied (the batch is a throughput device, not
  ///   a transaction). Ok when every op applied.
  virtual Status ApplyBatch(std::span<const Op> ops,
                            std::vector<ItemId>* inserted_ids = nullptr,
                            size_t* num_applied = nullptr);

  // --- Accessors --------------------------------------------------------

  /// True iff the id names a live item (stale generations fail).
  virtual bool Contains(ItemId id) const = 0;
  /// The live item's current weight.
  /// \return `kInvalidId` for unknown/stale ids.
  virtual StatusOr<Weight> GetWeight(ItemId id) const = 0;

  /// Number of live items (including zero-weight ones).
  virtual uint64_t size() const = 0;
  /// True iff size() == 0.
  bool empty() const { return size() == 0; }

  /// Exact Σw over live items.
  virtual BigUInt TotalWeight() const = 0;

  // --- Queries ----------------------------------------------------------

  /// One PSS query: `*out` is cleared and filled with the ids of a subset
  /// in which each item x appears independently with probability
  /// `min{w(x)/(α·Σw + β), 1}`. Uses the sampler-owned RNG.
  /// \pre alpha.den != 0, beta.den != 0, out != nullptr (else
  ///   `kInvalidArgument`).
  /// \return `kUnsupported` when (α, β) differs from the spec's fixed
  ///   parameters on a non-parameterized backend. O(1 + μ) expected for
  ///   "halt", μ = expected output size.
  virtual Status SampleInto(Rational64 alpha, Rational64 beta,
                            std::vector<ItemId>* out) = 0;

  /// Deterministic variant of SampleInto with an external engine: given
  /// equal sampler state and engine state, the output is reproducible.
  virtual Status SampleInto(Rational64 alpha, Rational64 beta,
                            RandomEngine& rng,
                            std::vector<ItemId>* out) const = 0;

  /// One PSS query against an explicit parameterized total W = wnum/wden
  /// in place of α·Σw + β: `*out` is cleared and filled with a subset in
  /// which each item x appears independently with probability
  /// `min{w(x)/W, 1}` (every nonzero item when W = 0). The parameterized
  /// backends answer SampleInto by computing W and calling this; the
  /// sharded wrapper samples each shard through it at the global
  /// denominator. O(1 + μ) expected for "halt".
  /// \return `kInvalidArgument` for wden == 0 or a null out;
  ///   `kUnsupported` (the default) on the fixed-(α, β) backends and the
  ///   sharded wrapper.
  virtual Status SampleIntoW(const BigUInt& wnum, const BigUInt& wden,
                             RandomEngine& rng,
                             std::vector<ItemId>* out) const;

  /// Convenience wrapper over SampleInto returning a fresh vector.
  StatusOr<std::vector<ItemId>> Sample(Rational64 alpha, Rational64 beta);

  /// μ_S(α, β) = Σ_x p_x(α, β) in double precision.
  /// \return `kUnsupported` unless `capabilities().expected_size`. O(n).
  virtual StatusOr<double> ExpectedSampleSize(Rational64 alpha,
                                              Rational64 beta) const;

  /// Draws `min(k, #nonzero items)` **distinct** items by successive
  /// weighted sampling without replacement: the first item is x with
  /// probability `w(x)/Σw`, the second is y ≠ x with probability
  /// `w(y)/(Σw − w(x))`, and so on — the classic WOR law, exact (all coins
  /// are rational, never floating point). `*out` is cleared first; the
  /// items land in draw order. Zero-weight items are never drawn. Uses the
  /// sampler-owned RNG, so equal seeds give reproducible draws.
  /// \return `kUnsupported` unless `capabilities().sample_distinct`;
  ///   `kInvalidArgument` for a null out.
  virtual Status SampleDistinct(uint64_t k, std::vector<ItemId>* out);

  /// Appends the ids of the `min(k, #nonzero items)` heaviest items to
  /// `*out` (cleared first), sorted by weight descending; ties are broken
  /// arbitrarily. Zero-weight items never appear. "halt" walks its bucket
  /// structure and touches O(output + one bucket) entries instead of
  /// dumping the whole set.
  /// \return `kUnsupported` unless `capabilities().top_k`;
  ///   `kInvalidArgument` for a null out.
  virtual Status TopK(uint64_t k, std::vector<ItemId>* out) const;

  /// Appends the ids of every item with weight >= `threshold` to `*out`
  /// (cleared first), in unspecified order. A zero threshold selects every
  /// nonzero item (zero-weight items never appear).
  /// \return `kUnsupported` unless `capabilities().top_k`;
  ///   `kInvalidArgument` for a null out.
  virtual Status ItemsAbove(Weight threshold, std::vector<ItemId>* out) const;

  // --- Snapshots, diagnostics -------------------------------------------

  /// Appends a versioned binary snapshot to `*out`. The bytes restore the
  /// full id state — per-slot weights, generations, and the free-slot
  /// order — so a restore followed by the same mutation sequence assigns
  /// the same ids (the property WAL replay in persist/recovery.h depends
  /// on). Every built-in backend implements this.
  /// \return `kUnsupported` unless `capabilities().snapshots`;
  ///   `kInvalidArgument` for a null out.
  virtual Status Serialize(std::string* out) const;
  /// Rebuilds the sampler from a snapshot, replacing the current item set
  /// entirely (slots, generations and free-list order all come from the
  /// snapshot — ids live before Restore but absent from it are invalid
  /// afterwards). Live-item ids in the snapshot are preserved.
  /// \return `kBadSnapshot` (leaving the current state untouched) if the
  ///   bytes are truncated, corrupted or version-mismatched;
  ///   `kUnsupported` unless `capabilities().snapshots`.
  virtual Status Restore(const std::string& bytes);

  /// Collects the backend's item state as relocatable arena images — the
  /// payload of the v2 snapshot format (persist/snapshot.h). Appends one
  /// ArenaImage per internal arena to `*out` in a stable order (the same
  /// order RestoreFromArenas expects). `kFull` copies every page; `kDirty`
  /// copies only pages touched since the previous collection. Both modes
  /// reset the dirty baseline, so interleaving two independent checkpoint
  /// streams over one sampler is not supported.
  /// \return `kUnsupported` unless `capabilities().arena_image`;
  ///   `kInvalidArgument` for a null out.
  virtual Status CollectArenaImages(ArenaImageMode mode,
                                    std::vector<ArenaImage>* out);

  /// Rebuilds the sampler from loaded arena images (the counterpart of
  /// CollectArenaImages, in the same order), replacing the current item
  /// set entirely. The arenas may be heap-loaded copies or adopted
  /// copy-on-write file mappings; the backend takes ownership either way.
  /// \return `kBadSnapshot` (leaving the current state untouched) when the
  ///   images fail validation; `kUnsupported` unless
  ///   `capabilities().arena_image`.
  virtual Status RestoreFromArenas(std::vector<ArenaLoad>&& loads);

  /// Appends every live item (id and current weight) to `*out` in a
  /// backend-chosen deterministic order. The basis of the persistence
  /// layer's *generic* snapshot frame and of cross-backend export: the
  /// records can be replayed into any backend via InsertWeight (fresh ids).
  /// \return `kUnsupported` if the backend cannot enumerate its items
  ///   (built-in backends all can); `kInvalidArgument` for a null out.
  virtual Status DumpItems(std::vector<ItemRecord>* out) const;

  /// Writes this sampler's payload into an open container snapshot
  /// (persist/snapshot.h): the native Serialize bytes as one payload frame.
  /// Drivers normally call persist::SaveSampler, which wraps the payload
  /// in the magic/version/backend/spec header and the CRC-sealed frame
  /// envelope. The id-losing generic DumpItems frame is never written
  /// here; persist::ExportPortable writes it on request.
  /// \return `kUnsupported` unless `capabilities().snapshots`; any
  ///   frame-write error otherwise.
  virtual Status SaveTo(persist::SnapshotWriter* writer) const;

  /// Structural self-check. A returned error means the *caller's bytes*
  /// were bad (never happens for in-process state); a broken internal
  /// invariant still aborts, as everywhere in the library. O(n) when
  /// `capabilities().deep_invariants`.
  virtual Status CheckInvariants() const;

  /// Approximate heap footprint (benchmarks, capacity planning).
  virtual size_t ApproxMemoryBytes() const = 0;

  /// One-line backend-specific stats for CLIs and logs.
  virtual std::string DebugString() const;

 protected:
  /// Subclass-only construction; instances come from the registry.
  Sampler() = default;

  /// Shared parameter validation: rationals must have non-zero
  /// denominators and `out` must be non-null.
  /// \return `kInvalidArgument` naming the violation, Ok otherwise.
  static Status ValidateQueryArgs(Rational64 alpha, Rational64 beta,
                                  const void* out);

  /// SampleIntoW argument validation: `wden` must be non-zero and `out`
  /// non-null.
  /// \return `kInvalidArgument` naming the violation, Ok otherwise.
  static Status ValidateDenominator(const BigUInt& wden, const void* out);

  /// Shared Decay-factor validation: `1 <= num <= den`.
  /// \return `kInvalidArgument` naming the violation, Ok otherwise.
  static Status ValidateDecayFactor(Rational64 factor);

  /// The exact WOR engine behind the base-class SampleDistinct: draws one
  /// item at a time ∝ weight (singleton-rejection over `SampleInto(1, 0)`
  /// with an exact acceptance coin, falling back to prefix-sum inversion
  /// over DumpItems), parks it via `SetWeight(id, 0)`, and restores every
  /// parked weight before returning. Backends with a cheaper native path
  /// override SampleDistinct instead of calling this.
  Status GenericSampleDistinct(uint64_t k, RandomEngine& rng,
                               std::vector<ItemId>* out);

  /// Re-seeds the engine behind the base-class generic SampleDistinct.
  /// Backends that rely on the generic path call this from their
  /// constructor with `spec.seed` so draws are reproducible per spec. The
  /// seed is salted internally so this stream never mirrors a backend's
  /// own query engine seeded with the same spec value.
  void SeedFallbackRng(uint64_t seed) {
    fallback_rng_.Seed(seed ^ 0x5eedf417b4c7a921ULL);
  }
  /// The engine behind the base-class generic SampleDistinct.
  RandomEngine& fallback_rng() const { return fallback_rng_; }

 private:
  /// Engine for the generic SampleDistinct path; mutable because draws
  /// mutate it while logically read-only helpers may use it too.
  mutable RandomEngine fallback_rng_{0x5eedull};
};

// --- Backend registry ----------------------------------------------------

/// A backend constructor: validates the spec and builds a sampler, or
/// returns `kInvalidArgument` naming the offending spec field.
using SamplerFactory =
    StatusOr<std::unique_ptr<Sampler>> (*)(const SamplerSpec& spec);

/// Registers a backend under `name`.
/// \return False (leaving the registry unchanged) if the name is already
///   taken. The built-in backends ("halt", "naive", "rebuild", "odss",
///   "bucket_jump") are pre-registered; the `"sharded[K]:<inner>"` grammar
///   is resolved structurally and needs no registration.
bool RegisterSampler(const std::string& name, SamplerFactory factory);

/// Creates a sampler by registry key, with construction-time diagnostics.
///
/// Accepted names are the registered backends plus the sharding grammar:
/// `"sharded:<inner>"` (shard count from `SamplerSpec::num_shards`) and
/// `"sharded<K>:<inner>"` (count embedded in the name), where `<inner>` is
/// recursively any accepted name.
/// \return `kInvalidArgument` for an unknown name or a spec the backend
///   rejects (the message names the offending field).
StatusOr<std::unique_ptr<Sampler>> MakeSamplerChecked(
    const std::string& name, const SamplerSpec& spec = {});

/// Creates a sampler by registry key; null for an unknown name or an
/// invalid spec. Prefer MakeSamplerChecked when the caller can surface the
/// diagnostic.
std::unique_ptr<Sampler> MakeSampler(const std::string& name,
                                     const SamplerSpec& spec = {});

/// All registered backend names, sorted. The sharded grammar is not
/// enumerated (it is a combinator, not a registry entry).
std::vector<std::string> RegisteredSamplerNames();

/// \brief Internal wiring between the registry and the backend translation
/// units; not part of the public API surface.
namespace internal_registry {

/// One named factory, as returned by BaselineBackends().
struct NamedFactory {
  const char* name;        ///< Registry key.
  SamplerFactory factory;  ///< Its constructor.
};
/// Implemented in baseline/backends.cc; called once by the registry so the
/// baseline registrations survive static-library dead-stripping.
std::vector<NamedFactory> BaselineBackends();

}  // namespace internal_registry

}  // namespace dpss

#endif  // DPSS_CORE_SAMPLER_H_
