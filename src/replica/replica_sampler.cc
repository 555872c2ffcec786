// Replica-side state machine. See replica/replica_sampler.h.

#include "replica/replica_sampler.h"

#include <utility>

#include "persist/snapshot.h"
#include "persist/wal.h"

namespace dpss {
namespace replica {

StatusOr<std::unique_ptr<ReplicaSampler>> ReplicaSampler::Create(
    persist::Env* env, const std::string& dir, const std::string& backend,
    const SamplerSpec& spec) {
  if (env == nullptr) env = persist::SystemEnv();
  Status st = env->CreateDir(dir);
  if (!st.ok()) return st;
  StatusOr<std::unique_ptr<Sampler>> inner = MakeSamplerChecked(backend, spec);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<ReplicaSampler>(
      new ReplicaSampler(env, dir, std::move(*inner)));
}

ReplicaSampler::ReplicaSampler(persist::Env* env, std::string dir,
                               std::unique_ptr<Sampler> inner)
    : env_(env),
      dir_(std::move(dir)),
      inner_(std::move(inner)),
      name_(std::string("replica:") + inner_->name()) {}

Status ReplicaSampler::Usable() const {
  if (promoted_) {
    return InvalidArgumentError("replica was promoted; this handle is spent");
  }
  if (divergent_) {
    return BadSnapshotError(
        "replica diverged from the primary's log and refuses further work");
  }
  return Status::Ok();
}

Status ReplicaSampler::InstallSnapshot(uint64_t epoch,
                                       const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Usable();
  if (!st.ok()) return st;
  if (epoch == 0) return InvalidArgumentError("epoch 0 is reserved");

  StatusOr<std::unique_ptr<Sampler>> loaded = persist::LoadSampler(bytes);
  if (!loaded.ok()) return loaded.status();

  // Mirror the snapshot bytes first, then start the local log — the same
  // publish order a primary's rotation uses, so a crash between the two
  // leaves the crash-normal "snapshot without WAL" shape recovery accepts.
  const std::string snap_path =
      dir_ + "/" + persist::SnapshotFileName(epoch);
  {
    StatusOr<std::unique_ptr<persist::WritableFile>> file =
        env_->NewWritableFile(snap_path, /*truncate=*/true);
    if (!file.ok()) return file.status();
    st = (*file)->Append(bytes);
    if (st.ok()) st = (*file)->Sync();
    if (st.ok()) st = (*file)->Close();
    if (!st.ok()) return st;
  }
  st = env_->SyncDir(dir_);
  if (!st.ok()) return st;

  StatusOr<std::unique_ptr<persist::WritableFile>> wal =
      env_->NewWritableFile(dir_ + "/" + persist::WalFileName(epoch),
                            /*truncate=*/true);
  if (!wal.ok()) return wal.status();
  st = (*wal)->Append(persist::EncodeWalHeader(epoch));
  if (st.ok()) st = (*wal)->Sync();
  if (!st.ok()) return st;

  // Retire older local epochs; only the epoch just installed is live.
  StatusOr<std::vector<std::string>> names = env_->ListDir(dir_);
  if (names.ok()) {
    for (const std::string& name : *names) {
      if (name == persist::SnapshotFileName(epoch) ||
          name == persist::WalFileName(epoch)) {
        continue;
      }
      (void)env_->DeleteFile(dir_ + "/" + name);
    }
    (void)env_->SyncDir(dir_);
  }

  inner_ = std::move(*loaded);
  name_ = std::string("replica:") + inner_->name();
  wal_mirror_ = std::move(*wal);
  epoch_ = epoch;
  applied_seq_ = 0;
  bootstrapped_ = true;
  return Status::Ok();
}

Status ReplicaSampler::ApplySegment(uint64_t epoch, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Usable();
  if (!st.ok()) return st;
  if (!bootstrapped_) {
    return InvalidArgumentError("replica has no snapshot to apply onto");
  }
  if (epoch != epoch_) {
    return InvalidArgumentError("segment is for a different epoch");
  }
  if (bytes.empty()) return Status::Ok();

  std::vector<persist::WalRecord> records;
  uint64_t valid = 0;
  persist::ParseWalRecords(bytes, applied_seq_ + 1, &records, &valid);
  if (records.empty()) {
    // Nothing usable at the segment's head: a torn first record, a CRC
    // failure, or records out of seq order. Reject the whole segment; the
    // next pull re-fetches from applied_seq_ + 1.
    return BadSnapshotError("unusable WAL segment (torn or corrupt head)");
  }

  // Mirror before applying: the local log must always hold at least what
  // the in-memory state reflects, so promotion's replay can never come up
  // short of the served state.
  st = wal_mirror_->Append(bytes.substr(0, valid));
  if (st.ok()) st = wal_mirror_->Sync();
  if (!st.ok()) return st;

  for (const persist::WalRecord& record : records) {
    st = persist::ReplayWalRecord(record, inner_.get());
    if (!st.ok()) {
      // Fail loudly, never guess: the replica no longer matches the log it
      // mirrors, so serving reads or promoting would publish wrong state.
      divergent_ = true;
      return st;
    }
    applied_seq_ = record.seq;
  }
  if (valid != bytes.size()) {
    return BadSnapshotError("WAL segment had a torn tail past its records");
  }
  return Status::Ok();
}

uint64_t ReplicaSampler::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t ReplicaSampler::applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_seq_;
}

bool ReplicaSampler::bootstrapped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bootstrapped_;
}

bool ReplicaSampler::divergent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return divergent_;
}

StatusOr<std::unique_ptr<persist::DurableSampler>> ReplicaSampler::Promote(
    const persist::DurableOptions& options, uint64_t min_epoch,
    uint64_t min_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Usable();
  if (!st.ok()) return st;
  if (!bootstrapped_) {
    return InvalidArgumentError(
        "replica never bootstrapped; nothing to promote");
  }
  if (epoch_ < min_epoch ||
      (epoch_ == min_epoch && applied_seq_ < min_seq)) {
    return InvalidArgumentError(
        "stale replica refuses promotion: applied position is behind the "
        "required (epoch, seq) floor");
  }

  // Seal the inherited epoch: flush the mirror, close it, truncate any
  // torn tail so the chain recovery walks is fully valid.
  st = wal_mirror_->Sync();
  if (st.ok()) st = wal_mirror_->Close();
  if (!st.ok()) return st;
  wal_mirror_.reset();
  StatusOr<persist::WalSealInfo> seal =
      persist::SealWal(env_, dir_ + "/" + persist::WalFileName(epoch_));
  if (!seal.ok()) return seal.status();

  persist::DurableOptions opts = options;
  opts.env = env_;
  StatusOr<std::unique_ptr<persist::DurableSampler>> opened =
      persist::RecoveryManager::Open(dir_, opts);
  if (!opened.ok()) return opened.status();
  promoted_ = true;
  return opened;
}

// --- Sampler interface ----------------------------------------------------

const char* ReplicaSampler::name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return name_.c_str();
}

Sampler::Capabilities ReplicaSampler::capabilities() const {
  std::lock_guard<std::mutex> lock(mu_);
  Capabilities caps = inner_->capabilities();
  caps.concurrent_queries = false;
  return caps;
}

StatusOr<ItemId> ReplicaSampler::Insert(uint64_t weight) {
  (void)weight;
  return UnsupportedError("replica is read-only; mutate the primary");
}

StatusOr<ItemId> ReplicaSampler::InsertWeight(Weight w) {
  (void)w;
  return UnsupportedError("replica is read-only; mutate the primary");
}

Status ReplicaSampler::Erase(ItemId id) {
  (void)id;
  return UnsupportedError("replica is read-only; mutate the primary");
}

Status ReplicaSampler::SetWeight(ItemId id, Weight w) {
  (void)id;
  (void)w;
  return UnsupportedError("replica is read-only; mutate the primary");
}

Status ReplicaSampler::InsertBatch(std::span<const uint64_t> weights,
                                   std::vector<ItemId>* ids) {
  (void)weights;
  (void)ids;
  return UnsupportedError("replica is read-only; mutate the primary");
}

Status ReplicaSampler::ApplyBatch(std::span<const Op> ops,
                                  std::vector<ItemId>* inserted_ids,
                                  size_t* num_applied) {
  (void)ops;
  (void)inserted_ids;
  if (num_applied != nullptr) *num_applied = 0;
  return UnsupportedError("replica is read-only; mutate the primary");
}

bool ReplicaSampler::Contains(ItemId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->Contains(id);
}

StatusOr<Weight> ReplicaSampler::GetWeight(ItemId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->GetWeight(id);
}

uint64_t ReplicaSampler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->size();
}

BigUInt ReplicaSampler::TotalWeight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->TotalWeight();
}

Status ReplicaSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  std::vector<ItemId>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->SampleInto(alpha, beta, out);
}

Status ReplicaSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  RandomEngine& rng,
                                  std::vector<ItemId>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->SampleInto(alpha, beta, rng, out);
}

StatusOr<double> ReplicaSampler::ExpectedSampleSize(Rational64 alpha,
                                                    Rational64 beta) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->ExpectedSampleSize(alpha, beta);
}

Status ReplicaSampler::DumpItems(std::vector<ItemRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->DumpItems(out);
}

Status ReplicaSampler::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->CheckInvariants();
}

size_t ReplicaSampler::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sizeof(*this) + inner_->ApproxMemoryBytes();
}

std::string ReplicaSampler::DebugString() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->DebugString() + " replica_epoch=" + std::to_string(epoch_) +
         " applied_seq=" + std::to_string(applied_seq_);
}

}  // namespace replica
}  // namespace dpss
