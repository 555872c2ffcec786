// RecoveryManager / DurableSampler implementation. The crash-consistency
// ordering rules implemented here are documented (and argued) in
// docs/PERSISTENCE.md; the kill-point harness in tests/recovery_test.cc
// checks them by crashing at every Env call index.

#include "persist/recovery.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <utility>

#include "persist/snapshot.h"
#include "util/little_endian.h"

namespace dpss {
namespace persist {

namespace {

std::string SnapshotName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string DeltaName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "delta-%llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string WalName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string_view FileView(MappedFile& map) {
  return map.size() == 0 ? std::string_view()
                         : std::string_view(map.data(), map.size());
}

// Heap-backed MappedFile for the DPSS_PERSIST_FORCE_MMAP=0 escape hatch:
// recovery then runs the identical code path minus the OS mapping.
class OwnedBytesMappedFile final : public MappedFile {
 public:
  explicit OwnedBytesMappedFile(std::string bytes)
      : bytes_(std::move(bytes)) {}
  char* data() override { return bytes_.empty() ? nullptr : bytes_.data(); }
  uint64_t size() const override { return bytes_.size(); }
  Status Msync(uint64_t, uint64_t) override { return Status::Ok(); }
  Status Sync() override { return Status::Ok(); }

 private:
  std::string bytes_;
};

bool MmapDisabled() {
  const char* v = std::getenv("DPSS_PERSIST_FORCE_MMAP");
  return v != nullptr && v[0] == '0';
}

// Maps a snapshot/delta file for loading (copy-on-write; the returned
// mapping is kept alive by any arenas adopted out of it).
StatusOr<std::shared_ptr<MappedFile>> MapSnapshot(Env* env,
                                                  const std::string& path) {
  if (MmapDisabled()) {
    std::string bytes;
    Status st = env->ReadFileToString(path, &bytes);
    if (!st.ok()) return st;
    return std::shared_ptr<MappedFile>(
        new OwnedBytesMappedFile(std::move(bytes)));
  }
  StatusOr<std::unique_ptr<MappedFile>> map =
      env->MapFile(path, MapMode::kPrivate);
  if (!map.ok()) return map.status();
  return std::shared_ptr<MappedFile>(std::move(*map));
}

// Parses "<prefix><decimal epoch>" names; returns false for anything else.
bool ParseEpoch(const std::string& name, const char* prefix,
                uint64_t* epoch) {
  const size_t plen = std::string_view(prefix).size();
  if (name.compare(0, plen, prefix) != 0 || name.size() == plen) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = plen; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *epoch = v;
  return true;
}

// The one persistence rule: a backend persists only through a native
// snapshot format that keeps ids (Capabilities::snapshots), because WAL
// replay re-derives every logged id. Status messages are static strings,
// hence one per built-in.
Status CheckPersists(const Sampler& s) {
  if (s.capabilities().snapshots) return Status::Ok();
  const std::string_view name = s.name();
  if (name == "rebuild") {
    return InvalidArgumentError(
        "rebuild: fixed-(alpha, beta) comparator, in-memory only; persist "
        "halt, naive or sharded[K]:<inner>");
  }
  if (name == "bucket_jump") {
    return InvalidArgumentError(
        "bucket_jump: fixed-(alpha, beta) comparator, in-memory only; "
        "persist halt, naive or sharded[K]:<inner>");
  }
  if (name == "odss") {
    return InvalidArgumentError(
        "odss: fixed-(alpha, beta) comparator, in-memory only; persist "
        "halt, naive or sharded[K]:<inner>");
  }
  return InvalidArgumentError(
      "backend has no native snapshot format (Capabilities::snapshots), so "
      "it cannot be persisted");
}

// CheckPersists for the backend a snapshot header names. A header that
// parsed (CRC-valid) is no crash artifact, so a backend the registry
// rejects is refused too.
Status CheckHeaderPersists(const SnapshotInfo& info) {
  StatusOr<std::unique_ptr<Sampler>> probe =
      MakeSamplerChecked(info.backend, info.spec);
  return probe.ok() ? CheckPersists(**probe) : probe.status();
}

}  // namespace

// Replays one WAL record (one atomic unit) onto `s`, verifying that every
// insert reproduces its logged id.
Status ReplayWalRecord(const WalRecord& record, Sampler* s) {
  for (const WalOp& op : record.ops) {
    switch (op.kind) {
      case Op::Kind::kInsert: {
        StatusOr<ItemId> id = s->InsertWeight(op.weight);
        if (!id.ok()) {
          return BadSnapshotError(
              "WAL replay: logged insert failed against the snapshot state");
        }
        if (*id != op.id) {
          return BadSnapshotError(
              "WAL replay produced a different id than the live run");
        }
        break;
      }
      case Op::Kind::kErase: {
        Status st = s->Erase(op.id);
        if (!st.ok()) {
          return BadSnapshotError(
              "WAL replay: logged erase failed against the snapshot state");
        }
        break;
      }
      case Op::Kind::kSetWeight: {
        Status st = s->SetWeight(op.id, op.weight);
        if (!st.ok()) {
          return BadSnapshotError(
              "WAL replay: logged update failed against the snapshot state");
        }
        break;
      }
      case Op::Kind::kDecay: {
        // Decay rides the fixed op layout: factor.num in the id field,
        // factor.den in weight.mult (the encoding Op::Decay uses).
        Status st = s->Decay(Rational64{op.id, op.weight.mult});
        if (!st.ok()) {
          return BadSnapshotError(
              "WAL replay: logged decay failed against the snapshot state");
        }
        break;
      }
    }
  }
  return Status::Ok();
}

std::string SnapshotFileName(uint64_t epoch) { return SnapshotName(epoch); }
std::string DeltaFileName(uint64_t epoch) { return DeltaName(epoch); }
std::string WalFileName(uint64_t epoch) { return WalName(epoch); }

// --- RecoveryManager ------------------------------------------------------

StatusOr<std::unique_ptr<DurableSampler>> RecoveryManager::Open(
    const std::string& dir, const DurableOptions& options_in) {
  DurableOptions options = options_in;
  if (options.env == nullptr) options.env = SystemEnv();
  Env* env = options.env;

  Status st = env->CreateDir(dir);
  if (!st.ok()) return st;

  // Inventory the directory: snapshot, delta and WAL epochs present.
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> snapshot_epochs;
  std::vector<uint64_t> delta_epochs;
  uint64_t max_epoch_seen = 0;
  for (const std::string& name : *names) {
    uint64_t epoch = 0;
    if (ParseEpoch(name, "snapshot-", &epoch)) {
      snapshot_epochs.push_back(epoch);
      max_epoch_seen = std::max(max_epoch_seen, epoch);
    } else if (ParseEpoch(name, "delta-", &epoch)) {
      delta_epochs.push_back(epoch);
      max_epoch_seen = std::max(max_epoch_seen, epoch);
    } else if (ParseEpoch(name, "wal-", &epoch)) {
      max_epoch_seen = std::max(max_epoch_seen, epoch);
    }
  }
  std::sort(snapshot_epochs.begin(), snapshot_epochs.end());
  std::sort(delta_epochs.begin(), delta_epochs.end());
  const auto has = [](const std::vector<uint64_t>& v, uint64_t e) {
    return std::binary_search(v.begin(), v.end(), e);
  };
  // Candidate chain tips, newest first.
  std::vector<uint64_t> tips;
  tips.reserve(snapshot_epochs.size() + delta_epochs.size());
  tips.insert(tips.end(), snapshot_epochs.begin(), snapshot_epochs.end());
  tips.insert(tips.end(), delta_epochs.begin(), delta_epochs.end());
  std::sort(tips.rbegin(), tips.rend());
  tips.erase(std::unique(tips.begin(), tips.end()), tips.end());

  // Load the newest epoch that validates end to end. An epoch is either a
  // full snapshot or a full snapshot plus the consecutive deltas up to it;
  // arena (v2) files are mapped copy-on-write and adopted, so the load is
  // page-fault-on-demand rather than a parse. An epoch that fails to load
  // (torn rotation, corruption) is skipped — the previous epoch is still
  // intact because rotation only deletes it after the new file is durable.
  RecoveryStats stats;
  Status rejected;  // a valid header naming a backend Open cannot keep
  std::unique_ptr<Sampler> inner;
  uint64_t epoch = 0;
  uint32_t loaded_version = 0;
  uint64_t loaded_deltas = 0;
  for (const uint64_t tip : tips) {
    // Walk down to the chain's full snapshot; every step below the tip
    // must be bridged by a delta.
    uint64_t anchor = tip;
    while (anchor != 0 && !has(snapshot_epochs, anchor) &&
           has(delta_epochs, anchor)) {
      --anchor;
    }
    if (anchor == 0 || !has(snapshot_epochs, anchor)) {
      ++stats.snapshots_skipped;
      continue;
    }
    const auto try_load = [&]() -> StatusOr<std::unique_ptr<Sampler>> {
      StatusOr<std::shared_ptr<MappedFile>> map =
          MapSnapshot(env, dir + "/" + SnapshotName(anchor));
      if (!map.ok()) return map.status();
      StatusOr<SnapshotInfo> sniff = ReadSnapshotInfo(FileView(**map));
      if (!sniff.ok()) return sniff.status();
      rejected = CheckHeaderPersists(*sniff);
      if (!rejected.ok()) return rejected;
      loaded_version = sniff->version;
      if (sniff->version != kContainerVersionArena) {
        if (anchor != tip) {
          return BadSnapshotError(
              "delta chained onto a classic (v1) snapshot");
        }
        return LoadSampler(std::string(FileView(**map)));
      }
      SnapshotInfo info;
      std::vector<ArenaLoad> loads;
      Status st = ParseArenaContainer(*map, options.verify_snapshot_pages,
                                      &info, &loads);
      if (!st.ok()) return st;
      for (uint64_t e = anchor + 1; e <= tip; ++e) {
        StatusOr<std::shared_ptr<MappedFile>> dmap =
            MapSnapshot(env, dir + "/" + DeltaName(e));
        if (!dmap.ok()) return dmap.status();
        st = ApplyArenaDeltaFile(*dmap, options.verify_snapshot_pages,
                                 /*expected_base_epoch=*/e - 1, &info,
                                 &loads);
        if (!st.ok()) return st;
      }
      return RestoreArenaSampler(info, std::move(loads));
    };
    StatusOr<std::unique_ptr<Sampler>> loaded = try_load();
    // Refuse, rather than skip: a fresh start would retire those files.
    if (!rejected.ok()) return rejected;
    if (!loaded.ok()) {
      ++stats.snapshots_skipped;
      continue;
    }
    inner = std::move(*loaded);
    epoch = tip;
    loaded_deltas = tip - anchor;
    break;
  }
  if (inner == nullptr) {
    StatusOr<std::unique_ptr<Sampler>> fresh =
        MakeSamplerChecked(options.backend, options.spec);
    if (!fresh.ok()) return fresh.status();
    st = CheckPersists(**fresh);
    if (!st.ok()) return st;
    inner = std::move(*fresh);
    stats.fresh_start = true;
    loaded_version = 0;
  }
  stats.snapshot_epoch = epoch;
  stats.deltas_applied = loaded_deltas;
  stats.snapshot_version = stats.fresh_start ? 0 : loaded_version;

  // Replay the WAL paired with the loaded snapshot. A missing WAL is
  // crash-normal (died between the snapshot rename and the WAL creation);
  // a torn tail is truncated; an epoch-mismatched or structurally invalid
  // log is corruption a pure crash cannot produce.
  if (epoch != 0) {
    const std::string wal_path = dir + "/" + WalName(epoch);
    std::string bytes;
    if (env->FileExists(wal_path)) {
      // The file is present, so its records must be read: a transient read
      // failure here must NOT be mistaken for the crash-normal "no WAL
      // yet" shape — rotation would then delete acked records.
      Status read = env->ReadFileToString(wal_path, &bytes);
      if (!read.ok()) return read;
      StatusOr<WalContents> wal = ReadWal(bytes);
      if (!wal.ok()) {
        // A crash during WalWriter::Create can leave any prefix of the
        // 20-byte header. That exact shape is crash-normal and means "no
        // records yet"; anything else is real corruption.
        std::string expected_header;
        AppendU64(&expected_header, kWalMagic);
        AppendU32(&expected_header, kWalVersion);
        AppendU64(&expected_header, epoch);
        if (bytes.size() < expected_header.size() &&
            expected_header.compare(0, bytes.size(), bytes) == 0) {
          WalContents torn;
          torn.epoch = epoch;
          torn.dropped_bytes = bytes.size();
          wal = torn;
        } else {
          return wal.status();
        }
      } else if (wal->epoch != epoch) {
        return BadSnapshotError("WAL header epoch does not match its name");
      }
      for (const WalRecord& record : wal->records) {
        Status replay = ReplayWalRecord(record, inner.get());
        if (!replay.ok()) return replay;
        ++stats.records_replayed;
        stats.ops_replayed += record.ops.size();
      }
      stats.wal_bytes_truncated = wal->dropped_bytes;
    }
  }

  // Resolve the checkpoint format this handle will write.
  bool use_arena = false;
  switch (options.snapshot_format) {
    case SnapshotFormat::kClassic:
      break;
    case SnapshotFormat::kArena:
      if (!inner->capabilities().arena_image) {
        return UnsupportedError(
            "snapshot_format kArena needs a backend with arena images");
      }
      use_arena = true;
      break;
    case SnapshotFormat::kAuto:
      use_arena = inner->capabilities().arena_image;
      break;
  }

  // Rotate to a fresh epoch so this process starts from snapshot +
  // empty log. DurableSampler::Checkpoint implements the crash-safe
  // ordering; reuse it through a provisional wrapper with no live WAL yet.
  // The rotation base sits above every epoch seen on disk, valid or not,
  // so stale corrupt files can never shadow the epochs written from here.
  const uint64_t rotation_base = std::max(epoch, max_epoch_seen);
  std::unique_ptr<DurableSampler> durable(new DurableSampler(
      dir, options, std::move(inner), nullptr, rotation_base, stats));
  durable->use_arena_format_ = use_arena;
  // The loaded arenas' dirty bitmap describes exactly the churn since the
  // on-disk chain (adopted mappings start clean; WAL replay dirtied what
  // it touched) — a valid incremental baseline, but only when the chain's
  // tip is the rotation base: stale higher-numbered junk would break the
  // consecutive-epoch naming the chain walk relies on.
  durable->can_extend_chain_ = use_arena && !stats.fresh_start &&
                               loaded_version == kContainerVersionArena &&
                               epoch == rotation_base;
  durable->delta_chain_len_ = static_cast<uint32_t>(loaded_deltas);
  // The open-time rotation uses the configured checkpoint mode. With
  // incremental checkpoints it extends the chain when it can: cost
  // proportional to the WAL churn just replayed, which is what makes Open
  // on a v2 chain mmap-instant instead of O(n). It falls back to a full
  // snapshot automatically (fresh start, classic chain, chain at cap).
  // Without them the tip stays a full snapshot, which replicas need.
  st = durable->Checkpoint();
  if (!st.ok()) return st;
  return durable;
}

// --- DurableSampler -------------------------------------------------------

DurableSampler::DurableSampler(std::string dir, DurableOptions options,
                               std::unique_ptr<Sampler> inner,
                               std::unique_ptr<WalWriter> wal,
                               uint64_t epoch, RecoveryStats stats)
    : dir_(std::move(dir)),
      name_(std::string("durable:") + inner->name()),
      options_(std::move(options)),
      inner_(std::move(inner)),
      wal_(std::move(wal)),
      epoch_(epoch),
      stats_(stats) {}

DurableSampler::~DurableSampler() {
  // Best effort: push buffered records to the OS. Not a checkpoint and not
  // an fsync — an unclean death here is exactly what recovery handles.
  if (wal_ != nullptr) (void)wal_->Sync();
}

const char* DurableSampler::name() const { return name_.c_str(); }

Sampler::Capabilities DurableSampler::capabilities() const {
  return inner_->capabilities();
}

Status DurableSampler::Checkpoint() {
  return Checkpoint(options_.incremental_checkpoints
                        ? CheckpointMode::kIncremental
                        : CheckpointMode::kFull);
}

Status DurableSampler::Checkpoint(CheckpointMode mode) {
  Env* env = options_.env;
  const uint64_t next = epoch_ + 1;
  // Incremental needs the arena format, a proven dirty-page baseline, and
  // headroom in the chain; otherwise quietly do the full rotation.
  const bool incremental =
      mode == CheckpointMode::kIncremental && use_arena_format_ &&
      can_extend_chain_ && delta_chain_len_ + 1 < options_.max_delta_chain;
  // 1. Write the new epoch's file under a temporary name and sync its
  // bytes. Arena containers go out through the write-through mapping path;
  // the classic format keeps the exact Append+Sync sequence it always had.
  const std::string file_base =
      incremental ? DeltaName(next) : SnapshotName(next);
  const std::string tmp = dir_ + "/" + file_base + ".tmp";
  const std::string final_path = dir_ + "/" + file_base;
  Status st;
  if (use_arena_format_) {
    // Collecting consumes the dirty baseline; only a checkpoint that
    // succeeds end to end proves the on-disk chain matches it again.
    can_extend_chain_ = false;
    std::string bytes;
    st = incremental ? SaveSamplerArenaDelta(inner_.get(), options_.spec,
                                             /*base_epoch=*/epoch_, &bytes)
                     : SaveSamplerArena(inner_.get(), options_.spec, &bytes);
    if (st.ok()) st = WriteFileViaMap(env, tmp, bytes);
  } else {
    st = SaveSamplerToFile(*inner_, options_.spec, env, tmp);
  }
  if (!st.ok()) {
    checkpoint_status_ = st;
    return st;
  }
  // 2. Atomically publish it and make the rename durable. From this
  // instant, recovery prefers epoch `next`.
  st = env->RenameFile(tmp, final_path);
  if (st.ok()) st = env->SyncDir(dir_);
  if (!st.ok()) {
    checkpoint_status_ = st;
    return st;
  }
  // 3. Start the new epoch's (empty) WAL; its header syncs inside Create.
  StatusOr<std::unique_ptr<WalWriter>> wal =
      WalWriter::Create(env, dir_ + "/" + WalName(next), next);
  if (wal.ok()) {
    Status dsync = env->SyncDir(dir_);
    if (!dsync.ok()) wal = dsync;
  }
  if (!wal.ok()) {
    // The new snapshot is durable, so recovery will still pick it (with no
    // WAL — crash-normal shape). This handle, however, must not log:
    // appends would land in the *previous* epoch's WAL, which recovery no
    // longer replays — acked-then-lost mutations. Poison the log until a
    // later Checkpoint() succeeds end to end.
    wal_broken_ = true;
    checkpoint_status_ = wal.status();
    return wal.status();
  }
  wal_ = std::move(*wal);
  wal_broken_ = false;
  const uint64_t previous = epoch_;
  epoch_ = next;
  records_since_sync_ = 0;
  delta_chain_len_ = incremental ? delta_chain_len_ + 1 : 0;
  if (use_arena_format_) can_extend_chain_ = true;
  // 4. Retire epochs outside the live chain [anchor, next], where anchor
  // is the chain's full snapshot (== next after a full checkpoint).
  // Failures here are harmless (recovery always prefers the newest valid
  // epoch), so they do not fail the checkpoint; stray files are retried
  // on the next rotation.
  const uint64_t anchor = epoch_ - delta_chain_len_;
  StatusOr<std::vector<std::string>> names = env->ListDir(dir_);
  if (names.ok()) {
    for (const std::string& name : *names) {
      uint64_t e = 0;
      const bool old_snapshot =
          ParseEpoch(name, "snapshot-", &e) && e <= previous && e != anchor;
      const bool old_delta = ParseEpoch(name, "delta-", &e) && e <= anchor;
      const bool old_wal = ParseEpoch(name, "wal-", &e) && e <= previous;
      const bool stray_tmp =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
          name != file_base + ".tmp";
      if (old_snapshot || old_delta || old_wal || stray_tmp) {
        (void)env->DeleteFile(dir_ + "/" + name);
      }
    }
    (void)env->SyncDir(dir_);
  }
  checkpoint_status_ = Status::Ok();
  return Status::Ok();
}

Status DurableSampler::SyncWal() {
  Status st = wal_->Sync();
  if (st.ok()) records_since_sync_ = 0;
  return st;
}

Status DurableSampler::Writable() const {
  if (wal_broken_) {
    return IoError(
        "durable log unavailable after a failed rotation; Checkpoint() to "
        "recover");
  }
  return Status::Ok();
}

Status DurableSampler::LogAndCommit(const std::vector<WalOp>& ops) {
  Status st = Writable();
  if (!st.ok()) return st;
  st = wal_->Append(ops);
  if (!st.ok()) return st;
  ++records_since_sync_;
  if (options_.wal_sync_every != 0 &&
      records_since_sync_ >= options_.wal_sync_every) {
    st = SyncWal();
    if (!st.ok()) return st;
  }
  if (options_.checkpoint_wal_bytes != 0 &&
      wal_->bytes_written() > options_.checkpoint_wal_bytes) {
    // The mutation itself succeeded and is logged; an auto-checkpoint
    // failure is reported out of band (last_checkpoint_status) because the
    // old epoch remains fully recoverable.
    (void)Checkpoint();
  }
  return Status::Ok();
}

StatusOr<ItemId> DurableSampler::Insert(uint64_t weight) {
  return InsertWeight(Weight::FromU64(weight));
}

StatusOr<ItemId> DurableSampler::InsertWeight(Weight w) {
  Status writable = Writable();
  if (!writable.ok()) return writable;
  StatusOr<ItemId> id = inner_->InsertWeight(w);
  if (!id.ok()) return id;
  Status st = LogAndCommit({{Op::Kind::kInsert, *id, w}});
  if (!st.ok()) return st;
  return id;
}

Status DurableSampler::Erase(ItemId id) {
  Status st = Writable();
  if (!st.ok()) return st;
  st = inner_->Erase(id);
  if (!st.ok()) return st;
  return LogAndCommit({{Op::Kind::kErase, id, Weight{}}});
}

Status DurableSampler::SetWeight(ItemId id, Weight w) {
  Status st = Writable();
  if (!st.ok()) return st;
  st = inner_->SetWeight(id, w);
  if (!st.ok()) return st;
  return LogAndCommit({{Op::Kind::kSetWeight, id, w}});
}

Status DurableSampler::Decay(Rational64 factor) {
  Status st = Writable();
  if (!st.ok()) return st;
  st = inner_->Decay(factor);
  if (!st.ok()) return st;
  // Same wire encoding as Op::Decay: factor.num rides the id field,
  // factor.den rides weight.mult.
  return LogAndCommit(
      {{Op::Kind::kDecay, factor.num, Weight{factor.den, 0}}});
}

Status DurableSampler::InsertBatch(std::span<const uint64_t> weights,
                                   std::vector<ItemId>* ids) {
  Status writable = Writable();
  if (!writable.ok()) return writable;
  std::vector<ItemId> local;
  std::vector<ItemId>* sink = ids != nullptr ? ids : &local;
  const size_t before = sink->size();
  const Status st = inner_->InsertBatch(weights, sink);
  // Log whatever prefix applied, even when the batch stopped early.
  const size_t applied = sink->size() - before;
  if (applied > 0) {
    std::vector<WalOp> ops;
    ops.reserve(applied);
    for (size_t i = 0; i < applied; ++i) {
      ops.push_back({Op::Kind::kInsert, (*sink)[before + i],
                     Weight::FromU64(weights[i])});
    }
    Status log = LogAndCommit(ops);
    if (st.ok() && !log.ok()) return log;
  }
  return st;
}

Status DurableSampler::ApplyBatch(std::span<const Op> ops,
                                  std::vector<ItemId>* inserted_ids,
                                  size_t* num_applied) {
  Status writable = Writable();
  if (!writable.ok()) {
    if (num_applied != nullptr) *num_applied = 0;
    return writable;
  }
  std::vector<ItemId> local;
  std::vector<ItemId>* sink = inserted_ids != nullptr ? inserted_ids : &local;
  const size_t ids_before = sink->size();
  size_t applied = 0;
  const Status st = inner_->ApplyBatch(ops, sink, &applied);
  if (num_applied != nullptr) *num_applied = applied;
  if (applied > 0) {
    std::vector<WalOp> wal_ops;
    wal_ops.reserve(applied);
    size_t insert_cursor = ids_before;
    for (size_t i = 0; i < applied; ++i) {
      const Op& op = ops[i];
      WalOp wal_op{op.kind, op.id, op.weight};
      if (op.kind == Op::Kind::kInsert) {
        wal_op.id = (*sink)[insert_cursor++];
      }
      wal_ops.push_back(wal_op);
    }
    Status log = LogAndCommit(wal_ops);
    if (st.ok() && !log.ok()) return log;
  }
  return st;
}

bool DurableSampler::Contains(ItemId id) const {
  return inner_->Contains(id);
}

StatusOr<Weight> DurableSampler::GetWeight(ItemId id) const {
  return inner_->GetWeight(id);
}

uint64_t DurableSampler::size() const { return inner_->size(); }

BigUInt DurableSampler::TotalWeight() const { return inner_->TotalWeight(); }

Status DurableSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  std::vector<ItemId>* out) {
  return inner_->SampleInto(alpha, beta, out);
}

Status DurableSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  RandomEngine& rng,
                                  std::vector<ItemId>* out) const {
  return inner_->SampleInto(alpha, beta, rng, out);
}

StatusOr<double> DurableSampler::ExpectedSampleSize(Rational64 alpha,
                                                    Rational64 beta) const {
  return inner_->ExpectedSampleSize(alpha, beta);
}

// Not logged: the park/restore inside an inner SampleDistinct nets to zero
// observable change, so the WAL does not need to see it.
Status DurableSampler::SampleDistinct(uint64_t k, std::vector<ItemId>* out) {
  return inner_->SampleDistinct(k, out);
}

Status DurableSampler::TopK(uint64_t k, std::vector<ItemId>* out) const {
  return inner_->TopK(k, out);
}

Status DurableSampler::ItemsAbove(Weight threshold,
                                  std::vector<ItemId>* out) const {
  return inner_->ItemsAbove(threshold, out);
}

Status DurableSampler::Serialize(std::string* out) const {
  return inner_->Serialize(out);
}

Status DurableSampler::Restore(const std::string& bytes) {
  Status st = inner_->Restore(bytes);
  if (!st.ok()) return st;
  // The WAL no longer describes deltas over the current snapshot; rotate
  // immediately so the durable image matches the restored state. Full: the
  // restore rebuilt the arenas, so no incremental baseline survives.
  return Checkpoint(CheckpointMode::kFull);
}

Status DurableSampler::CollectArenaImages(ArenaImageMode mode,
                                          std::vector<ArenaImage>* out) {
  // The caller walks away with the dirty baseline; the next incremental
  // checkpoint must not assume it still describes the on-disk chain.
  can_extend_chain_ = false;
  return inner_->CollectArenaImages(mode, out);
}

Status DurableSampler::RestoreFromArenas(std::vector<ArenaLoad>&& loads) {
  Status st = inner_->RestoreFromArenas(std::move(loads));
  if (!st.ok()) return st;
  // Same reasoning as Restore.
  return Checkpoint(CheckpointMode::kFull);
}

Status DurableSampler::DumpItems(std::vector<ItemRecord>* out) const {
  return inner_->DumpItems(out);
}

Status DurableSampler::CheckInvariants() const {
  return inner_->CheckInvariants();
}

size_t DurableSampler::ApproxMemoryBytes() const {
  return sizeof(*this) + inner_->ApproxMemoryBytes();
}

std::string DurableSampler::DebugString() const {
  return inner_->DebugString() + " epoch=" + std::to_string(epoch_) +
         " wal_bytes=" + std::to_string(wal_->bytes_written());
}

}  // namespace persist
}  // namespace dpss
