/// \file
/// \brief Crash-safe persistence for every backend with a native snapshot
/// format (`capabilities().snapshots`): `RecoveryManager::Open` + the
/// `DurableSampler` wrapper (snapshot + write-ahead log).
///
/// A durable directory holds exactly one logical state as a pair of files
/// per *epoch* N:
///
/// \code
///   <dir>/snapshot-N    container snapshot of the state at rotation time
///   <dir>/delta-N       arena-delta: pages dirtied since epoch N-1
///                       (incremental checkpoints only)
///   <dir>/wal-N         every mutation applied since epoch N
/// \endcode
///
/// Epoch N's state is either snapshot-N, or the newest snapshot-S (S < N)
/// plus the *consecutive* deltas delta-(S+1) .. delta-N. Incremental
/// checkpoints extend the chain; full checkpoints start a new one and
/// retire everything older.
///
/// `RecoveryManager::Open` loads the newest epoch that validates fully —
/// arena (v2) snapshots are mapped copy-on-write via `Env::MapFile` and
/// adopted without a parse, so load cost is page-fault-on-demand — then
/// replays the matching WAL's valid prefix (truncating any torn tail),
/// verifies every replayed insert reproduces its logged id, and then
/// *rotates*: it writes epoch N+1 of the recovered state (a delta when
/// incremental checkpoints are on and the chain allows it), starts
/// wal-(N+1), and deletes epochs outside the chain. Every step of the rotation is
/// ordered so that a crash at any point leaves either the old epoch or the
/// new one fully loadable — the kill-point harness in
/// tests/recovery_test.cc drives a crash at every single Env call index
/// and checks exactly that. The full argument lives in
/// docs/PERSISTENCE.md.
///
/// `DurableSampler` wraps the recovered backend behind the ordinary
/// `dpss::Sampler` interface. Mutations apply in memory first, then append
/// one WAL record, then sync per the group-commit policy
/// (`DurableOptions::wal_sync_every`); queries touch no I/O. The wrapper
/// is thread-compatible like any other sampler — external synchronization
/// is required even over a `sharded` inner backend, because the log append
/// itself is a serial point.

#ifndef DPSS_PERSIST_RECOVERY_H_
#define DPSS_PERSIST_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "persist/env.h"
#include "persist/wal.h"

namespace dpss {
namespace persist {

/// Which container format DurableSampler checkpoints write.
enum class SnapshotFormat {
  /// Arena-image (v2) when the backend has `capabilities().arena_image`,
  /// classic (v1) otherwise.
  kAuto,
  /// Always the classic parsed-payload (v1) container.
  kClassic,
  /// Always the arena-image (v2) container; Open fails with `kUnsupported`
  /// when the backend has no arena images.
  kArena,
};

/// Which files one Checkpoint call writes.
enum class CheckpointMode {
  /// A complete snapshot; every older epoch is retired afterwards.
  kFull,
  /// A delta holding only the pages dirtied since the previous checkpoint
  /// (arena format only). Falls back to a full snapshot whenever no valid
  /// dirty-page baseline exists — after Open on a foreign chain, after a
  /// failed checkpoint, or once the delta chain reaches
  /// `DurableOptions::max_delta_chain`.
  kIncremental,
};

/// Construction options for RecoveryManager::Open.
struct DurableOptions {
  /// Registry name of the backend to run ("halt", "sharded8:halt", ...).
  /// Ignored when the directory already holds a snapshot — the snapshot
  /// header's backend wins, so a directory cannot silently change type.
  /// Whichever of the two Open would build must advertise
  /// `capabilities().snapshots`.
  std::string backend = "halt";
  /// Spec for a fresh backend (and the spec recorded into snapshots).
  SamplerSpec spec;
  /// Group-commit policy: fsync the WAL after every N-th record. 1 = every
  /// mutation is durable before it returns (safest, one fsync per op);
  /// N > 1 amortizes the fsync over N mutations; 0 = never sync
  /// automatically (caller drives SyncWal; a crash may lose the whole
  /// unsynced tail, never more).
  uint32_t wal_sync_every = 1;
  /// Auto-checkpoint once the WAL exceeds this many bytes (0 = manual
  /// checkpoints only). Bounds recovery replay time.
  uint64_t checkpoint_wal_bytes = 0;
  /// Container format for checkpoints (see SnapshotFormat).
  SnapshotFormat snapshot_format = SnapshotFormat::kAuto;
  /// Default mode for Checkpoint() and auto-checkpoints: incremental
  /// deltas whose size is proportional to the churn since the previous
  /// checkpoint, instead of full O(n) snapshots. Arena format only.
  bool incremental_checkpoints = false;
  /// Upper bound on the delta chain length (one full snapshot plus this
  /// many deltas); reaching it forces the next checkpoint full. Bounds the
  /// number of files recovery must map and apply.
  uint32_t max_delta_chain = 32;
  /// Re-verify every stored page CRC when loading arena snapshots. Costs
  /// one hardware-CRC pass over the mapped bytes; without it integrity
  /// rests on the frame CRCs plus the write-path ordering.
  bool verify_snapshot_pages = true;
  /// Filesystem to run on; null uses SystemEnv().
  Env* env = nullptr;
};

/// What Open found and did; exposed via DurableSampler::recovery_stats.
struct RecoveryStats {
  uint64_t snapshot_epoch = 0;     ///< Epoch loaded; 0 on a fresh start.
  uint64_t snapshots_skipped = 0;  ///< Newer snapshots that failed to load.
  uint64_t deltas_applied = 0;     ///< Incremental deltas in the loaded chain.
  uint64_t records_replayed = 0;   ///< WAL records applied.
  uint64_t ops_replayed = 0;       ///< Ops inside those records.
  uint64_t wal_bytes_truncated = 0;  ///< Torn-tail bytes dropped.
  uint32_t snapshot_version = 0;   ///< Container version loaded; 0 = fresh.
  bool fresh_start = false;        ///< No usable snapshot existed.
};

/// A backend plus its durability machinery. All Sampler mutations are
/// logged; see the file comment for ordering and durability semantics.
/// On a `kIoError` from any mutation the in-memory state is still correct
/// but its durable image may lag — reopen via RecoveryManager to
/// re-establish the invariant.
class DurableSampler final : public Sampler {
 public:
  ~DurableSampler() override;

  /// "durable:" + the inner backend's registry name.
  const char* name() const override;
  /// The inner backend's capabilities, `concurrent_queries` included:
  /// queries forward to the inner without touching the WAL.
  Capabilities capabilities() const override;

  StatusOr<ItemId> Insert(uint64_t weight) override;
  StatusOr<ItemId> InsertWeight(Weight w) override;
  Status Erase(ItemId id) override;
  Status SetWeight(ItemId id, Weight w) override;
  /// Re-exposes the base's integer-weight SetWeight overload, which the
  /// override above would otherwise hide.
  using Sampler::SetWeight;
  /// Applies the decay in memory, then logs one `kDecay` record so
  /// recovery replays it at the same point in the mutation order (a
  /// backend holding the factor as pending metadata also serializes it in
  /// its own snapshot, so both the snapshot and the WAL paths restore it).
  Status Decay(Rational64 factor) override;

  /// Logs the applied inserts as one atomic WAL record.
  Status InsertBatch(std::span<const uint64_t> weights,
                     std::vector<ItemId>* ids) override;
  /// Logs the applied prefix of `ops` as one atomic WAL record (the whole
  /// batch when every op succeeds).
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
  /// Read-style forwards: the park/restore inside SampleDistinct nets to
  /// zero observable change, so none of these touch the log.
  Status SampleDistinct(uint64_t k, std::vector<ItemId>* out) override;
  Status TopK(uint64_t k, std::vector<ItemId>* out) const override;
  Status ItemsAbove(Weight threshold,
                    std::vector<ItemId>* out) const override;

  Status Serialize(std::string* out) const override;
  /// Restores the inner backend, then checkpoints (full) immediately so
  /// the durable image matches the restored state.
  Status Restore(const std::string& bytes) override;
  /// Forwards to the inner backend. The collection consumes the backend's
  /// dirty-page baseline, so the next incremental checkpoint falls back to
  /// a full snapshot.
  Status CollectArenaImages(ArenaImageMode mode,
                            std::vector<ArenaImage>* out) override;
  /// Restores the inner backend from arena images, then checkpoints
  /// (full) immediately, like Restore.
  Status RestoreFromArenas(std::vector<ArenaLoad>&& loads) override;
  Status DumpItems(std::vector<ItemRecord>* out) const override;
  Status CheckInvariants() const override;
  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;

  // --- Durability controls ----------------------------------------------

  /// Rotates to a fresh epoch: snapshots the current state, starts a new
  /// WAL, deletes older epochs. Crash-safe at every step; on error the
  /// previous epoch remains loadable. Mode follows
  /// `DurableOptions::incremental_checkpoints`.
  Status Checkpoint();

  /// Checkpoint with an explicit mode. `kIncremental` writes only the
  /// pages dirtied since the previous checkpoint — cost proportional to
  /// churn, not to n — and keeps the snapshot+delta chain; it silently
  /// performs a full checkpoint when no valid baseline exists (see
  /// CheckpointMode).
  Status Checkpoint(CheckpointMode mode);

  /// Forces a WAL fsync now (the group-commit override).
  Status SyncWal();

  /// Current WAL size in bytes (header + records).
  uint64_t wal_bytes() const { return wal_->bytes_written(); }
  /// Sequence number the next logged record will carry (last logged + 1).
  /// Replication uses it to name the durability point a mutation batch
  /// reached: the batch's record has seq `wal_next_seq() - 1` right after
  /// the mutation returns.
  uint64_t wal_next_seq() const { return wal_->next_seq(); }
  /// Current epoch number.
  uint64_t epoch() const { return epoch_; }
  /// The durable directory this sampler logs into (replication reads the
  /// live epoch's files out of it).
  const std::string& dir() const { return dir_; }
  /// The filesystem the durable files live on (never null after Open).
  Env* env() const { return options_.env; }
  /// What recovery found when this sampler was opened.
  const RecoveryStats& recovery_stats() const { return stats_; }
  /// Outcome of the most recent (auto-)checkpoint; Ok if none failed.
  const Status& last_checkpoint_status() const { return checkpoint_status_; }
  /// The wrapped backend (for read-only inspection).
  const Sampler& inner() const { return *inner_; }

 private:
  friend class RecoveryManager;
  DurableSampler(std::string dir, DurableOptions options,
                 std::unique_ptr<Sampler> inner,
                 std::unique_ptr<WalWriter> wal, uint64_t epoch,
                 RecoveryStats stats);

  // Refuses mutations while the log is poisoned (a rotation failed after
  // publishing its snapshot — appends to the old WAL would be silently
  // unreplayable). Checked *before* the in-memory apply, so memory and
  // log never diverge on this path.
  Status Writable() const;

  // Appends one record for the given ops and applies the group-commit
  // policy; then auto-checkpoints if the WAL outgrew its bound.
  Status LogAndCommit(const std::vector<WalOp>& ops);

  std::string dir_;
  std::string name_;
  DurableOptions options_;
  std::unique_ptr<Sampler> inner_;
  std::unique_ptr<WalWriter> wal_;
  // True after a rotation failed between publishing its snapshot and
  // opening the new WAL; cleared by the next fully successful Checkpoint.
  bool wal_broken_ = false;
  // Resolved at Open from options_.snapshot_format and the backend's
  // capabilities: checkpoints write v2 arena containers.
  bool use_arena_format_ = false;
  // True iff the on-disk chain tip is exactly epoch_ AND the backend's
  // dirty-page bitmap describes the churn since that tip — the
  // precondition for an incremental checkpoint. Cleared whenever the
  // baseline is consumed or unproven (a collect, a failed checkpoint, a
  // restore); set by a fully successful arena checkpoint.
  bool can_extend_chain_ = false;
  // Deltas currently chained onto the last full snapshot.
  uint32_t delta_chain_len_ = 0;
  uint64_t epoch_ = 0;
  uint64_t records_since_sync_ = 0;
  RecoveryStats stats_;
  Status checkpoint_status_;
};

/// Replays one WAL record (one atomic unit) onto `s`, verifying that every
/// logged insert reproduces its logged id — backends assign ids
/// deterministically from their state, so a mismatch means the replayed
/// base state diverged from the one the log was written against.
/// \return `kBadSnapshot` on any replay failure or id mismatch. Shared by
///   recovery and by replicas applying shipped WAL segments (the
///   "divergent replica fails loudly" guarantee).
Status ReplayWalRecord(const WalRecord& record, Sampler* s);

/// Name of epoch `epoch`'s snapshot inside a durable directory
/// ("snapshot-N"). Replication resolves the files it ships by these names.
std::string SnapshotFileName(uint64_t epoch);
/// Name of epoch `epoch`'s arena delta ("delta-N").
std::string DeltaFileName(uint64_t epoch);
/// Name of epoch `epoch`'s write-ahead log ("wal-N").
std::string WalFileName(uint64_t epoch);

/// Opens (or creates) a durable sampler directory. See the file comment
/// for the recovery protocol.
class RecoveryManager {
 public:
  /// Recovers the newest consistent state from `dir` (creating the
  /// directory and an empty state on first use), rotates to a fresh epoch,
  /// and returns the live handle.
  /// \return `kInvalidArgument` (naming a built-in backend), before any
  ///   file is written, when the backend it would build (the newest snapshot
  ///   header's, else `options.backend`) has no native snapshot format,
  ///   or is a header's backend the registry rejects;
  ///   `kIoError` when the filesystem refuses the rotation;
  ///   `kBadSnapshot` when the directory's contents are corrupt beyond
  ///   what crash semantics can produce (e.g. a WAL replay id mismatch) —
  ///   never an abort.
  static StatusOr<std::unique_ptr<DurableSampler>> Open(
      const std::string& dir, const DurableOptions& options);
};

}  // namespace persist
}  // namespace dpss

#endif  // DPSS_PERSIST_RECOVERY_H_
