/// \file
/// \brief `dpss::replica::ReplicaSampler` — a read-only sampler that
/// follows a primary by applying shipped WAL segments, plus the
/// `Promote()` path that turns a caught-up replica into a primary.
///
/// \par Lifecycle
/// A replica starts empty (an ordinary fresh backend, so reads work from
/// the first instant — they just see an empty set). `InstallSnapshot`
/// bootstraps it onto the primary's current epoch; `ApplySegment` then
/// applies shipped records in seq order forever. Both mirror the exact
/// bytes into a local durable directory:
///
/// \code
///   <dir>/snapshot-E   byte-for-byte the primary's snapshot-E
///   <dir>/wal-E        the standard 20-byte header + every shipped record
/// \endcode
///
/// so the mirror is always a *byte prefix* of the primary's epoch-E state
/// — exactly the crash-consistent shape `RecoveryManager::Open`
/// understands. That identity is what `tests/replica_consistency_test.cc`
/// checks (`DumpItems` byte-identical) and what makes promotion ordinary
/// recovery.
///
/// \par Divergence policy: refuse, never guess
/// Every applied record runs through `persist::ReplayWalRecord`, which
/// verifies each logged insert reproduces its logged id. A mismatch means
/// the replica's state differs from what the primary logged against — a
/// bug, a corrupt bootstrap, or a mixed-up directory. The replica marks
/// itself divergent and refuses all further applies and promotion; it
/// never guesses its way past the mismatch (docs/REPLICATION.md makes the
/// argument).
///
/// \par Promotion
/// `Promote` seals the inherited epoch (`persist::SealWal` truncates any
/// torn tail) and hands the mirror directory to `RecoveryManager::Open`,
/// which re-verifies the whole chain and rotates to a fresh epoch with a
/// new WAL — the returned `DurableSampler` is a full primary. A stale
/// replica (behind the caller's required position) refuses to promote.
///
/// \par Threading
/// Thread-safe: an internal mutex serializes applies (the feed thread)
/// against reads (the serving thread). Mutations are rejected with
/// `kUnsupported` — the serving layer answers them `kNotPrimary` before
/// they ever reach the sampler.

#ifndef DPSS_REPLICA_REPLICA_SAMPLER_H_
#define DPSS_REPLICA_REPLICA_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sampler.h"
#include "persist/env.h"
#include "persist/recovery.h"

namespace dpss {
namespace replica {

/// See the file comment.
class ReplicaSampler final : public Sampler {
 public:
  /// Creates an un-bootstrapped replica mirroring into `dir` (created if
  /// absent) on `env` (null = SystemEnv). `backend`/`spec` shape the empty
  /// pre-bootstrap sampler; after a bootstrap the snapshot header's
  /// backend wins, as everywhere else.
  static StatusOr<std::unique_ptr<ReplicaSampler>> Create(
      persist::Env* env, const std::string& dir, const std::string& backend,
      const SamplerSpec& spec);

  // --- Replication state machine ----------------------------------------

  /// Bootstraps onto epoch `epoch` from the primary's snapshot bytes:
  /// loads them, mirrors them to `<dir>/snapshot-<epoch>`, starts the
  /// local `<dir>/wal-<epoch>` with the standard header, and retires older
  /// local epochs. Resets `applied_seq()` to 0.
  Status InstallSnapshot(uint64_t epoch, const std::string& bytes);

  /// Applies a shipped segment: whole raw records starting at
  /// `applied_seq() + 1`. The valid record prefix is mirrored to the local
  /// log (synced) and applied under the id-determinism check; a torn or
  /// corrupt *tail* merely ends the segment (the next pull re-fetches from
  /// `applied_seq() + 1`), but a segment whose first record is unusable is
  /// an error, and an id mismatch poisons the replica permanently.
  /// \return `kBadSnapshot` for a wholly unusable segment or divergence,
  ///   `kInvalidArgument` for a segment of the wrong epoch or before
  ///   bootstrap.
  Status ApplySegment(uint64_t epoch, std::string_view bytes);

  /// The epoch this replica follows (0 = not bootstrapped yet).
  uint64_t epoch() const;
  /// Last WAL seq applied within `epoch()` (0 = none).
  uint64_t applied_seq() const;
  /// True once InstallSnapshot succeeded.
  bool bootstrapped() const;
  /// True after an id-determinism failure; the replica is poisoned.
  bool divergent() const;

  /// Turns the mirror into a primary: refuses when divergent, never
  /// bootstrapped, or behind (`min_epoch`, `min_seq`); otherwise seals the
  /// inherited epoch and opens the mirror directory via
  /// `RecoveryManager::Open` (id-verified replay + rotation to a fresh
  /// epoch). On success this replica is spent: every further call fails.
  /// `options.env` and durable-dir-derived fields are overridden to the
  /// replica's own.
  StatusOr<std::unique_ptr<persist::DurableSampler>> Promote(
      const persist::DurableOptions& options, uint64_t min_epoch,
      uint64_t min_seq);

  // --- Sampler interface (reads serve; mutations refuse) ----------------

  /// "replica:" + the inner backend's registry name.
  const char* name() const override;
  /// The inner backend's capabilities, except `concurrent_queries`, which
  /// is clear: every query holds the replica's mutex, so queries run one
  /// at a time whatever the inner backend allows.
  Capabilities capabilities() const override;

  StatusOr<ItemId> Insert(uint64_t weight) override;
  StatusOr<ItemId> InsertWeight(Weight w) override;
  Status Erase(ItemId id) override;
  Status SetWeight(ItemId id, Weight w) override;
  /// Re-exposes the base's integer-weight overload hidden by the override.
  using Sampler::SetWeight;
  Status InsertBatch(std::span<const uint64_t> weights,
                     std::vector<ItemId>* ids) override;
  Status ApplyBatch(std::span<const Op> ops,
                    std::vector<ItemId>* inserted_ids = nullptr,
                    size_t* num_applied = nullptr) override;

  bool Contains(ItemId id) const override;
  StatusOr<Weight> GetWeight(ItemId id) const override;
  uint64_t size() const override;
  BigUInt TotalWeight() const override;
  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override;
  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override;
  StatusOr<double> ExpectedSampleSize(Rational64 alpha,
                                      Rational64 beta) const override;
  Status DumpItems(std::vector<ItemRecord>* out) const override;
  Status CheckInvariants() const override;
  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;

 private:
  ReplicaSampler(persist::Env* env, std::string dir,
                 std::unique_ptr<Sampler> inner);

  // Shared precondition for the replication mutators.
  Status Usable() const;  // mu_ held

  persist::Env* env_;
  const std::string dir_;

  mutable std::mutex mu_;
  std::unique_ptr<Sampler> inner_;
  std::unique_ptr<persist::WritableFile> wal_mirror_;
  std::string name_;
  uint64_t epoch_ = 0;
  uint64_t applied_seq_ = 0;
  bool bootstrapped_ = false;
  bool divergent_ = false;
  bool promoted_ = false;
};

}  // namespace replica
}  // namespace dpss

#endif  // DPSS_REPLICA_REPLICA_SAMPLER_H_
