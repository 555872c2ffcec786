// The kill-point recovery harness (the PR's proof of correctness for the
// persistence layer), plus targeted recovery-behaviour tests and the
// post-recovery distribution gate.
//
// Harness design: a deterministic mutation script runs against a
// DurableSampler whose filesystem is a FaultInjectingEnv (tests/test_util.h)
// wrapping a MemEnv. The env kills the "process" at mutating-call index k —
// for every k, in both drop and torn-write modes. After each injected
// crash the harness "reboots" (RecoveryManager::Open on the raw MemEnv,
// i.e. the exact bytes the crash left behind) and requires:
//
//   1. recovery SUCCEEDS — a pure crash never leaves an unrecoverable
//      directory — and never aborts (the CI sanitizers job runs this file
//      under ASan/UBSan, so OOB reads crash loudly);
//   2. the recovered state equals the shadow model after some *prefix* of
//      the applied mutation units, no shorter than the durability floor
//      (every unit acked under the sync policy before the crash);
//   3. the recovered sampler is alive: invariants hold and new mutations
//      apply.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampler.h"
#include "persist/env.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "replica/replication_log.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace dpss {
namespace {

using persist::DurableOptions;
using persist::DurableSampler;
using persist::MemEnv;
using persist::RecoveryManager;
using testing_util::ExpectFrequencyGate;
using testing_util::FaultInjectingEnv;

constexpr char kDir[] = "state";

DurableOptions MakeOptions(persist::Env* env, const std::string& backend,
                           uint32_t sync_every, bool incremental = false) {
  DurableOptions opts;
  opts.backend = backend;
  opts.spec.seed = 1234;
  opts.wal_sync_every = sync_every;
  opts.incremental_checkpoints = incremental;
  opts.env = env;
  return opts;
}

// --- Shadow model ---------------------------------------------------------

// One op of one atomic unit. `id_known` is false only for a single Insert
// whose call crashed after the in-memory apply (the id never reached the
// caller); its weight is still known.
struct ShadowOp {
  Op::Kind kind = Op::Kind::kInsert;
  ItemId id = 0;
  uint64_t weight = 0;
  bool id_known = true;
};
using ShadowUnit = std::vector<ShadowOp>;

struct ScriptResult {
  std::vector<ShadowUnit> applied;  // units applied in memory, in order
  size_t floor = 0;  // units guaranteed durable under the sync policy
  bool crashed = false;
};

// Does `s` equal the shadow state after the first `p` units?
bool MatchesPrefix(const Sampler& s, const std::vector<ShadowUnit>& units,
                   size_t p) {
  std::map<ItemId, uint64_t> expect;
  std::vector<uint64_t> unknown_ids;  // weights of unknown-id inserts
  for (size_t u = 0; u < p; ++u) {
    for (const ShadowOp& op : units[u]) {
      switch (op.kind) {
        case Op::Kind::kInsert:
          if (op.id_known) {
            expect[op.id] = op.weight;
          } else {
            unknown_ids.push_back(op.weight);
          }
          break;
        case Op::Kind::kErase:
          expect.erase(op.id);
          break;
        case Op::Kind::kSetWeight:
          expect[op.id] = op.weight;
          break;
      }
    }
  }
  if (s.size() != expect.size() + unknown_ids.size()) return false;
  unsigned __int128 total = 0;
  for (const auto& [id, w] : expect) {
    if (!s.Contains(id)) return false;
    const StatusOr<Weight> got = s.GetWeight(id);
    if (!got.ok() || !(*got == Weight::FromU64(w))) return false;
    total += w;
  }
  for (const uint64_t w : unknown_ids) total += w;
  return s.TotalWeight() == BigUInt::FromU128(total);
}

// --- The deterministic script ---------------------------------------------

// Drives inserts, erases, set-weights, an InsertBatch, ApplyBatches and two
// explicit checkpoints against a freshly opened durable sampler, stopping
// at the first error (the injected crash). Identical inputs on every run:
// behaviour diverges from the fault-free run only at the crash point.
ScriptResult RunScript(persist::Env* env, const std::string& backend,
                       uint32_t sync_every, bool incremental = false) {
  ScriptResult result;
  auto opened = RecoveryManager::Open(kDir, MakeOptions(env, backend,
                                                        sync_every,
                                                        incremental));
  if (!opened.ok()) {
    result.crashed = true;
    return result;
  }
  DurableSampler& d = **opened;

  // Mirrors the harness's own sync policy to maintain the durability
  // floor; a successful checkpoint also makes everything durable.
  uint64_t since_sync = 0;
  const auto on_acked = [&] {
    if (sync_every != 0 && ++since_sync >= sync_every) {
      since_sync = 0;
      result.floor = result.applied.size();
    }
  };

  RandomEngine rng(77);
  std::vector<ItemId> live;
  for (int i = 0; i < 34; ++i) {
    if (i == 10 || i == 22) {
      if (d.Checkpoint().ok()) {
        since_sync = 0;
        result.floor = result.applied.size();
      }
      continue;
    }
    if (i == 15) {
      // One InsertBatch: logged as a single atomic record.
      const std::vector<uint64_t> weights = {7, 21, 63};
      std::vector<ItemId> ids;
      const Status st = d.InsertBatch(weights, &ids);
      if (!ids.empty()) {
        ShadowUnit unit;
        for (size_t j = 0; j < ids.size(); ++j) {
          unit.push_back({Op::Kind::kInsert, ids[j], weights[j], true});
          live.push_back(ids[j]);
        }
        result.applied.push_back(unit);
      }
      if (!st.ok()) {
        result.crashed = true;
        return result;
      }
      on_acked();
      continue;
    }
    if (i % 11 == 9 && live.size() >= 2) {
      // One mixed ApplyBatch: also a single atomic record.
      const ItemId victim = live[rng.NextBelow(live.size())];
      ItemId target = victim;
      while (target == victim) target = live[rng.NextBelow(live.size())];
      const std::vector<Op> ops = {
          Op::Insert(uint64_t{11 + static_cast<uint64_t>(i)}),
          Op::SetWeight(target, 5),
          Op::Erase(victim),
      };
      std::vector<ItemId> ids;
      size_t applied = 0;
      const Status st = d.ApplyBatch(ops, &ids, &applied);
      if (applied > 0) {
        ShadowUnit unit;
        size_t insert_cursor = 0;
        for (size_t j = 0; j < applied; ++j) {
          ShadowOp op;
          op.kind = ops[j].kind;
          op.id = ops[j].id;
          op.weight = ops[j].weight.mult;
          if (ops[j].kind == Op::Kind::kInsert) {
            op.id = ids[insert_cursor++];
            live.push_back(op.id);
          }
          unit.push_back(op);
        }
        result.applied.push_back(unit);
        if (applied >= 3) {
          for (auto it = live.begin(); it != live.end(); ++it) {
            if (*it == victim) {
              live.erase(it);
              break;
            }
          }
        }
      }
      if (!st.ok()) {
        result.crashed = true;
        return result;
      }
      on_acked();
      continue;
    }
    if (i % 7 == 3 && !live.empty()) {
      const size_t pick = rng.NextBelow(live.size());
      const ItemId id = live[pick];
      const Status st = d.Erase(id);
      // Erase validated against a live id: an error means the crash hit
      // after the in-memory apply.
      result.applied.push_back({{Op::Kind::kErase, id, 0, true}});
      live[pick] = live.back();
      live.pop_back();
      if (!st.ok()) {
        result.crashed = true;
        return result;
      }
      on_acked();
      continue;
    }
    if (i % 7 == 5 && !live.empty()) {
      const ItemId id = live[rng.NextBelow(live.size())];
      const uint64_t w = 1 + rng.NextBelow(1 << 10);
      const Status st = d.SetWeight(id, w);
      result.applied.push_back({{Op::Kind::kSetWeight, id, w, true}});
      if (!st.ok()) {
        result.crashed = true;
        return result;
      }
      on_acked();
      continue;
    }
    const uint64_t w = 1 + rng.NextBelow(1 << 10);
    const StatusOr<ItemId> id = d.Insert(w);
    if (id.ok()) {
      result.applied.push_back({{Op::Kind::kInsert, *id, w, true}});
      live.push_back(*id);
      on_acked();
    } else {
      // Applied in memory, id unknown to the caller; the crash decides
      // whether it reached the log.
      result.applied.push_back({{Op::Kind::kInsert, 0, w, false}});
      result.crashed = true;
      return result;
    }
  }
  return result;
}

// --- The harness ----------------------------------------------------------

const char* ModeName(FaultInjectingEnv::Mode mode) {
  switch (mode) {
    case FaultInjectingEnv::Mode::kDrop: return "drop";
    case FaultInjectingEnv::Mode::kPartial: return "partial";
    case FaultInjectingEnv::Mode::kTornPage: return "torn-page";
  }
  return "?";
}

void KillPointHarness(const std::string& backend, uint32_t sync_every,
                      bool incremental = false) {
  // Fault-free probe: counts the script's mutating Env calls — the set of
  // kill points — and records the complete shadow for the no-crash case.
  uint64_t total_ticks = 0;
  {
    MemEnv mem;
    FaultInjectingEnv probe(&mem, ~uint64_t{0},
                            FaultInjectingEnv::Mode::kDrop);
    const ScriptResult full = RunScript(&probe, backend, sync_every,
                                        incremental);
    ASSERT_FALSE(full.crashed);
    total_ticks = probe.mutating_calls();
    ASSERT_GT(total_ticks, 40u) << "script too small to be interesting";
  }

  for (const auto mode : {FaultInjectingEnv::Mode::kDrop,
                          FaultInjectingEnv::Mode::kPartial,
                          FaultInjectingEnv::Mode::kTornPage}) {
    for (uint64_t k = 0; k < total_ticks; ++k) {
      MemEnv mem;
      ScriptResult run;
      {
        FaultInjectingEnv fault(&mem, k, mode);
        run = RunScript(&fault, backend, sync_every, incremental);
      }
      // "Reboot": recover from exactly the bytes the crash left behind.
      auto reopened = RecoveryManager::Open(
          kDir, MakeOptions(&mem, backend, sync_every, incremental));
      ASSERT_TRUE(reopened.ok())
          << backend << " crash point " << k << " mode " << ModeName(mode)
          << ": recovery failed: " << reopened.status().message();
      EXPECT_TRUE((*reopened)->CheckInvariants().ok());

      // Prefix consistency: some prefix no shorter than the durability
      // floor must match exactly.
      bool matched = false;
      size_t matched_p = 0;
      for (size_t p = run.applied.size() + 1; p-- > 0;) {
        if (MatchesPrefix(**reopened, run.applied, p)) {
          matched = true;
          matched_p = p;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << backend << " crash point " << k << ": recovered state matches "
          << "no prefix of the " << run.applied.size() << " applied units";
      if (matched) {
        EXPECT_GE(matched_p, run.floor)
            << backend << " crash point " << k
            << ": recovery lost units that were acked as durable";
      }

      // Liveness: the recovered sampler keeps working.
      EXPECT_TRUE((*reopened)->Insert(5).ok());
      std::vector<ItemId> out;
      EXPECT_TRUE((*reopened)->SampleInto({1, 1}, {0, 1}, &out).ok());
    }
  }
}

// "halt" has no arena images, so these two pin the classic v1 path.
TEST(RecoveryKillPoints, HaltSyncEveryOp) { KillPointHarness("halt", 1); }

TEST(RecoveryKillPoints, HaltGroupCommit) { KillPointHarness("halt", 4); }

TEST(RecoveryKillPoints, ShardedHalt) {
  KillPointHarness("sharded4:halt", 1);
}

// "naive" and everything below run the arena (v2) snapshot path:
// rotation and checkpoints go through WriteFileViaMap, so every MapFile
// and Msync is a kill point and every torn-page crash lands inside a
// mapped writeback. This one writes full (not incremental) v2 checkpoints
// and syncs every op.
TEST(RecoveryKillPoints, NaiveFullCheckpoint) { KillPointHarness("naive", 1); }

// Incremental checkpoints: the script's two Checkpoint() calls write
// delta files, so the kill-point matrix covers every crash index inside
// delta rotation and every reboot walks a snapshot+delta chain.
TEST(RecoveryKillPoints, NaiveIncrementalDeltaChain) {
  KillPointHarness("naive", 1, /*incremental=*/true);
}

TEST(RecoveryKillPoints, ShardedNaiveIncremental) {
  KillPointHarness("sharded4:naive", 4, /*incremental=*/true);
}

// --- Targeted recovery behaviour ------------------------------------------

TEST(RecoveryTest, CleanRestartPreservesEverything) {
  MemEnv mem;
  std::vector<ItemId> ids;
  {
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
    ASSERT_TRUE(d.ok());
    EXPECT_TRUE((*d)->recovery_stats().fresh_start);
    for (uint64_t w : {10, 20, 30, 40}) ids.push_back(*(*d)->Insert(w));
    ASSERT_TRUE((*d)->Erase(ids[1]).ok());
    ASSERT_TRUE((*d)->SetWeight(ids[2], 35).ok());
  }
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(d.ok());
  const persist::RecoveryStats& stats = (*d)->recovery_stats();
  EXPECT_FALSE(stats.fresh_start);
  EXPECT_EQ(stats.records_replayed, 6u);  // 4 inserts + erase + set
  EXPECT_EQ(stats.wal_bytes_truncated, 0u);
  EXPECT_EQ((*d)->size(), 3u);
  EXPECT_FALSE((*d)->Contains(ids[1]));
  EXPECT_EQ((*d)->GetWeight(ids[2])->mult, 35u);
  EXPECT_EQ((*d)->TotalWeight(), BigUInt(uint64_t{85}));
}

TEST(RecoveryTest, DirectoryBackendStickiness) {
  // The directory's snapshot header decides the backend; a later Open with
  // a different requested backend must not silently switch types.
  MemEnv mem;
  {
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "naive", 1));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(9).ok());
  }
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(d.ok());
  EXPECT_STREQ((*d)->name(), "durable:naive");
  EXPECT_EQ((*d)->size(), 1u);
}

TEST(RecoveryTest, GarbageWalTailIsTruncated) {
  MemEnv mem;
  {
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(5).ok());
    ASSERT_TRUE((*d)->Insert(6).ok());
  }
  // Simulate a torn append: garbage bytes at the end of the live WAL
  // (the first Open rotated the fresh directory to epoch 1).
  const std::string wal_path = std::string(kDir) + "/wal-1";
  ASSERT_TRUE(mem.FileExists(wal_path));
  {
    auto f = mem.NewWritableFile(wal_path, /*truncate=*/false);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("\x13garbage-torn-tail").ok());
  }
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->recovery_stats().records_replayed, 2u);
  EXPECT_GT((*d)->recovery_stats().wal_bytes_truncated, 0u);
  EXPECT_EQ((*d)->size(), 2u);
}

TEST(RecoveryTest, AutoCheckpointBoundsTheWal) {
  MemEnv mem;
  DurableOptions opts = MakeOptions(&mem, "halt", 1);
  opts.checkpoint_wal_bytes = 512;
  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  const uint64_t epoch_before = (*d)->epoch();
  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*d)->Insert(1 + i).ok());
  EXPECT_GT((*d)->epoch(), epoch_before) << "no auto-checkpoint fired";
  EXPECT_TRUE((*d)->last_checkpoint_status().ok());
  EXPECT_LE((*d)->wal_bytes(), uint64_t{512} + 128);
  EXPECT_EQ((*d)->size(), 100u);
  // And the rotated directory still recovers cleanly.
  d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->size(), 100u);
}

TEST(RecoveryTest, RestoreRotatesImmediately) {
  MemEnv mem;
  SamplerSpec spec;
  spec.seed = 1234;
  auto donor = MakeSampler("halt", spec);
  const std::vector<uint64_t> donor_weights = {1, 2, 3};
  ASSERT_TRUE(donor->InsertBatch(donor_weights, nullptr).ok());
  std::string bytes;
  ASSERT_TRUE(donor->Serialize(&bytes).ok());

  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->Insert(999).ok());
  const uint64_t epoch_before = (*d)->epoch();
  ASSERT_TRUE((*d)->Restore(bytes).ok());
  EXPECT_GT((*d)->epoch(), epoch_before);
  EXPECT_EQ((*d)->size(), 3u);
  // A restart sees the restored state, not the pre-restore item.
  auto reopened = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 3u);
  EXPECT_EQ((*reopened)->TotalWeight(), BigUInt(uint64_t{6}));
}

// Regression: with default options (no incremental checkpoints) the
// open-time rotation of an arena-capable backend writes a full snapshot,
// so a restarted primary's chain tip is never a delta and replicas can
// still bootstrap from it.
TEST(RecoveryTest, DefaultReopenKeepsAShippableSnapshotTip) {
  MemEnv mem;
  const DurableOptions opts = MakeOptions(&mem, "naive", 1);
  for (uint64_t w : {10, 20}) {
    auto d = RecoveryManager::Open(kDir, opts);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(w).ok());
  }
  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  auto listing = mem.ListDir(kDir);
  ASSERT_TRUE(listing.ok());
  std::sort(listing->begin(), listing->end());
  EXPECT_EQ(*listing, (std::vector<std::string>{"snapshot-3", "wal-3"}));
  replica::ReplicationLog log(d->get());
  const replica::ReplicationLog::SubscribeResult sub = log.Subscribe(0, 0, 0);
  EXPECT_TRUE(sub.status.ok()) << sub.status.message();
  EXPECT_EQ(sub.epoch, 3u);
}

TEST(RecoveryTest, DurableForwardsConcurrentQueries) {
  MemEnv mem;
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "sharded4:naive", 1));
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE((*d)->capabilities().concurrent_queries);
}

// A naive wrapper registered without a native snapshot format: the shape
// of an external registration that can only dump its items. `name` lets a
// test write a snapshot header naming any backend.
class NoSnapshotNaive final : public Sampler {
 public:
  explicit NoSnapshotNaive(const SamplerSpec& spec,
                           const char* name = "naive_no_snapshots")
      : inner_(MakeSampler("naive", spec)), name_(name) {}
  const char* name() const override { return name_; }
  Capabilities capabilities() const override {
    Capabilities caps = inner_->capabilities();
    caps.snapshots = false;
    caps.arena_image = false;
    return caps;
  }
  StatusOr<ItemId> Insert(uint64_t w) override { return inner_->Insert(w); }
  StatusOr<ItemId> InsertWeight(Weight w) override {
    return inner_->InsertWeight(w);
  }
  Status Erase(ItemId id) override { return inner_->Erase(id); }
  Status SetWeight(ItemId id, Weight w) override {
    return inner_->SetWeight(id, w);
  }
  bool Contains(ItemId id) const override { return inner_->Contains(id); }
  StatusOr<Weight> GetWeight(ItemId id) const override {
    return inner_->GetWeight(id);
  }
  uint64_t size() const override { return inner_->size(); }
  BigUInt TotalWeight() const override { return inner_->TotalWeight(); }
  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    return inner_->SampleInto(alpha, beta, out);
  }
  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    return inner_->SampleInto(alpha, beta, rng, out);
  }
  Status DumpItems(std::vector<ItemRecord>* out) const override {
    return inner_->DumpItems(out);
  }
  size_t ApproxMemoryBytes() const override {
    return sizeof(*this) + inner_->ApproxMemoryBytes();
  }

 private:
  std::unique_ptr<Sampler> inner_;
  const char* name_;
};

StatusOr<std::unique_ptr<Sampler>> MakeNoSnapshotNaive(
    const SamplerSpec& spec) {
  return StatusOr<std::unique_ptr<Sampler>>(
      std::make_unique<NoSnapshotNaive>(spec));
}

// Open builds only a backend that keeps ids across a checkpoint. One
// without a native snapshot format used to be accepted and checkpointed
// through the id-losing generic frame, so a logged erase after a
// checkpoint named an id the reopened state never issued and recovery
// failed ("logged erase failed against the snapshot state"). The
// rejection comes before any file is written.
TEST(RecoveryTest, OpenRejectsBackendsWithoutNativeSnapshots) {
  // Registered here, not at static init, so the backend stays out of the
  // registry-driven suites instantiated before any test runs.
  (void)RegisterSampler("naive_no_snapshots", &MakeNoSnapshotNaive);
  for (const char* backend :
       {"rebuild", "bucket_jump", "odss", "naive_no_snapshots"}) {
    SCOPED_TRACE(backend);
    MemEnv mem;
    const DurableOptions opts = MakeOptions(&mem, backend, 1);
    auto d = RecoveryManager::Open(kDir, opts);
    if (d.ok()) {
      // Show what accepting it costs: an erase acked after a checkpoint.
      std::vector<ItemId> ids;
      for (uint64_t w : {10, 20, 30, 40}) ids.push_back(*(*d)->Insert(w));
      ASSERT_TRUE((*d)->Erase(ids[0]).ok());
      ASSERT_TRUE((*d)->Checkpoint().ok());
      ASSERT_TRUE((*d)->Erase(ids[3]).ok());
      d = RecoveryManager::Open(kDir, opts);
      ADD_FAILURE() << "Open accepted it; reopening after acked writes "
                    << "gives: " << (d.ok() ? "Ok" : d.status().message());
      continue;
    }
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    const std::string message = d.status().message();
    if (std::string(backend) == "naive_no_snapshots") {
      // Registered backends share one static message.
      EXPECT_NE(message.find("no native snapshot format"), std::string::npos)
          << message;
    } else {
      EXPECT_EQ(message.rfind(std::string(backend) + ":", 0), 0u) << message;
    }
    auto listing = mem.ListDir(kDir);
    ASSERT_TRUE(listing.ok());
    EXPECT_TRUE(listing->empty());
  }
}

// The same rule on the header path: a snapshot naming a backend Open
// cannot keep refuses the Open and keeps the file, instead of skipping the
// epoch, starting fresh and retiring it. Here: the portable export of an
// in-memory comparator, and a header naming a composition the registry
// rejects (sharded over a comparator, as older builds wrote).
TEST(RecoveryTest, OpenRefusesASnapshotOfABackendItCannotKeep) {
  for (const char* backend : {"odss", "sharded2:odss"}) {
    SCOPED_TRACE(backend);
    MemEnv mem;
    SamplerSpec spec;
    spec.seed = 1234;
    NoSnapshotNaive writer(spec, backend);
    ASSERT_TRUE(writer.Insert(7).ok());
    std::string bytes;
    ASSERT_TRUE(persist::ExportPortable(writer, spec, &bytes).ok());
    ASSERT_TRUE(mem.CreateDir(kDir).ok());
    {
      auto f = mem.NewWritableFile(std::string(kDir) + "/snapshot-1",
                                   /*truncate=*/true);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Append(bytes).ok());
    }
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(d.status().message()).find("odss"),
              std::string::npos)
        << d.status().message();
    auto listing = mem.ListDir(kDir);
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(*listing, std::vector<std::string>{"snapshot-1"});
  }
}

// --- Arena (v2) format and incremental checkpoints ------------------------

TEST(RecoveryArenaTest, IncrementalCheckpointsBuildADeltaChain) {
  MemEnv mem;
  const DurableOptions opts =
      MakeOptions(&mem, "naive", 1, /*incremental=*/true);
  std::vector<ItemId> ids;
  {
    auto d = RecoveryManager::Open(kDir, opts);
    ASSERT_TRUE(d.ok());
    // The fresh-directory rotation is necessarily full: snapshot-1.
    ASSERT_TRUE(mem.FileExists("state/snapshot-1"));
    for (uint64_t w : {10, 20, 30, 40}) ids.push_back(*(*d)->Insert(w));
    ASSERT_TRUE((*d)->Checkpoint().ok());
    ASSERT_TRUE((*d)->SetWeight(ids[2], 35).ok());
    ASSERT_TRUE((*d)->Erase(ids[1]).ok());
    ASSERT_TRUE((*d)->Checkpoint().ok());
  }
  // Both explicit checkpoints extended the chain instead of rewriting it:
  // the anchor snapshot survives and the churn lives in delta files.
  EXPECT_TRUE(mem.FileExists("state/snapshot-1"));
  EXPECT_TRUE(mem.FileExists("state/delta-2"));
  EXPECT_TRUE(mem.FileExists("state/delta-3"));
  EXPECT_FALSE(mem.FileExists("state/snapshot-2"));
  EXPECT_FALSE(mem.FileExists("state/snapshot-3"));

  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  const persist::RecoveryStats& stats = (*d)->recovery_stats();
  EXPECT_EQ(stats.snapshot_epoch, 3u);
  EXPECT_EQ(stats.deltas_applied, 2u);
  EXPECT_EQ(stats.snapshot_version, persist::kContainerVersionArena);
  EXPECT_EQ((*d)->size(), 3u);
  EXPECT_FALSE((*d)->Contains(ids[1]));
  EXPECT_EQ((*d)->GetWeight(ids[2])->mult, 35u);
  EXPECT_EQ((*d)->TotalWeight(), BigUInt(uint64_t{85}));
  EXPECT_TRUE((*d)->CheckInvariants().ok());
  // Open itself rotated incrementally — the recovered chain grew by one
  // delta rather than being rewritten as a full snapshot.
  EXPECT_TRUE(mem.FileExists("state/snapshot-1"));
  EXPECT_TRUE(mem.FileExists("state/delta-4"));
}

TEST(RecoveryArenaTest, DeltaChainCapForcesAFullSnapshot) {
  MemEnv mem;
  DurableOptions opts = MakeOptions(&mem, "naive", 1, /*incremental=*/true);
  opts.max_delta_chain = 2;
  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->Insert(7).ok());
  ASSERT_TRUE((*d)->Checkpoint().ok());  // epoch 2: delta (chain length 1)
  ASSERT_TRUE(mem.FileExists("state/delta-2"));
  ASSERT_TRUE((*d)->Insert(8).ok());
  ASSERT_TRUE((*d)->Checkpoint().ok());  // epoch 3: cap reached -> full
  EXPECT_TRUE(mem.FileExists("state/snapshot-3"));
  // The full snapshot retired the entire old chain.
  EXPECT_FALSE(mem.FileExists("state/snapshot-1"));
  EXPECT_FALSE(mem.FileExists("state/delta-2"));
  EXPECT_FALSE(mem.FileExists("state/delta-3"));

  auto reopened = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().deltas_applied, 0u);
  EXPECT_EQ((*reopened)->size(), 2u);
  EXPECT_EQ((*reopened)->TotalWeight(), BigUInt(uint64_t{15}));
}

TEST(RecoveryArenaTest, ClassicFormatOptionPinsV1) {
  MemEnv mem;
  DurableOptions opts = MakeOptions(&mem, "naive", 1, /*incremental=*/true);
  opts.snapshot_format = persist::SnapshotFormat::kClassic;
  {
    auto d = RecoveryManager::Open(kDir, opts);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(9).ok());
    // Incremental checkpoints need the arena format; with kClassic the
    // call silently stays full and writes no delta.
    ASSERT_TRUE((*d)->Checkpoint().ok());
    EXPECT_FALSE(mem.FileExists("state/delta-2"));
    EXPECT_TRUE(mem.FileExists("state/snapshot-2"));
  }
  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->recovery_stats().snapshot_version, 1u);
  EXPECT_EQ((*d)->size(), 1u);
}

TEST(RecoveryArenaTest, V1DirectoryUpgradesToV2OnReopen) {
  // Back-compat: a directory written entirely in the classic format loads
  // under the default options, and the rotation re-publishes it as v2.
  MemEnv mem;
  {
    DurableOptions classic = MakeOptions(&mem, "naive", 1);
    classic.snapshot_format = persist::SnapshotFormat::kClassic;
    auto d = RecoveryManager::Open(kDir, classic);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(11).ok());
    ASSERT_TRUE((*d)->Insert(22).ok());
  }
  {
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "naive", 1));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ((*d)->recovery_stats().snapshot_version, 1u);
    EXPECT_EQ((*d)->size(), 2u);
  }
  // The second Open's rotation wrote an arena snapshot; the third load
  // maps it.
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "naive", 1));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->recovery_stats().snapshot_version,
            persist::kContainerVersionArena);
  EXPECT_EQ((*d)->size(), 2u);
  EXPECT_EQ((*d)->TotalWeight(), BigUInt(uint64_t{33}));
}

TEST(RecoveryArenaTest, ArenaFormatForcedOnClassicBackendIsRejected) {
  MemEnv mem;
  DurableOptions opts = MakeOptions(&mem, "halt", 1);
  opts.snapshot_format = persist::SnapshotFormat::kArena;
  auto d = RecoveryManager::Open(kDir, opts);
  EXPECT_EQ(d.status().code(), StatusCode::kUnsupported);
}

TEST(RecoveryArenaTest, HeapFallbackMatchesMmapPath) {
  // DPSS_PERSIST_FORCE_MMAP=0 swaps the CoW mapping for a heap read; the
  // recovered state must be identical either way.
  MemEnv mem;
  std::vector<ItemId> ids;
  {
    auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "naive", 1));
    ASSERT_TRUE(d.ok());
    for (uint64_t w : {3, 5, 8}) ids.push_back(*(*d)->Insert(w));
    ASSERT_TRUE((*d)->Checkpoint().ok());
  }
  const char* prior = ::getenv("DPSS_PERSIST_FORCE_MMAP");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("DPSS_PERSIST_FORCE_MMAP", "0", 1);
  auto d = RecoveryManager::Open(kDir, MakeOptions(&mem, "naive", 1));
  if (prior != nullptr) {
    ::setenv("DPSS_PERSIST_FORCE_MMAP", saved.c_str(), 1);
  } else {
    ::unsetenv("DPSS_PERSIST_FORCE_MMAP");
  }
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->recovery_stats().snapshot_version,
            persist::kContainerVersionArena);
  EXPECT_EQ((*d)->size(), 3u);
  for (const ItemId id : ids) EXPECT_TRUE((*d)->Contains(id));
  EXPECT_EQ((*d)->TotalWeight(), BigUInt(uint64_t{16}));
  EXPECT_TRUE((*d)->CheckInvariants().ok());
  EXPECT_TRUE((*d)->Insert(4).ok());
}

TEST(RecoveryArenaTest, CorruptDeltaFallsBackToTheAnchor) {
  // A delta whose page bytes rot must not poison recovery: the loader
  // rejects that tip and falls back to an older consistent epoch.
  MemEnv mem;
  const DurableOptions opts =
      MakeOptions(&mem, "naive", 1, /*incremental=*/true);
  {
    auto d = RecoveryManager::Open(kDir, opts);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->Insert(100).ok());
    ASSERT_TRUE((*d)->Checkpoint().ok());  // delta-2
  }
  ASSERT_TRUE(mem.FileExists("state/delta-2"));
  // Flip one byte in the delta's aligned page region (past the metadata
  // frame, so only the per-page CRC can catch it).
  std::string bytes;
  ASSERT_TRUE(mem.ReadFileToString("state/delta-2", &bytes).ok());
  ASSERT_GT(bytes.size(), persist::kArenaFileAlign);
  bytes[bytes.size() - persist::kArenaFileAlign / 2] ^= 0x40;
  {
    auto f = mem.NewWritableFile("state/delta-2", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bytes).ok());
  }
  auto d = RecoveryManager::Open(kDir, opts);
  ASSERT_TRUE(d.ok()) << d.status().message();
  EXPECT_GT((*d)->recovery_stats().snapshots_skipped, 0u);
  // The anchor (epoch 1, pre-insert) is the newest consistent state. The
  // insert was durable only in the rotted delta (its WAL was retired by
  // the checkpoint), so media corruption — unlike any crash — may lose it;
  // what recovery guarantees is a consistent state and a loud skip count.
  EXPECT_EQ((*d)->recovery_stats().snapshot_epoch, 1u);
  EXPECT_EQ((*d)->size(), 0u);
  EXPECT_TRUE((*d)->CheckInvariants().ok());
  EXPECT_TRUE((*d)->Insert(1).ok());
}

// --- Post-recovery distribution gate --------------------------------------
//
// The satellite requirement: a snapshot → crash → replay state must sample
// chi-square-identically to a never-crashed sampler. Both the recovered
// sampler and a control built directly in its (id, weight) state face the
// same exact-marginal frequency gate from tests/statistical.h.

TEST(RecoveryDistribution, RecoveredStateSamplesExactly) {
  const auto script = [](persist::Env* env) {
    auto d = RecoveryManager::Open(kDir, MakeOptions(env, "halt", 1));
    if (!d.ok()) return;
    std::vector<ItemId> ids;
    RandomEngine wrng(42);
    for (int i = 0; i < 48; ++i) {
      const uint64_t w = (uint64_t{1} << 12) + wrng.NextBelow(1 << 13);
      const auto id = (*d)->Insert(w);
      if (!id.ok()) return;
      ids.push_back(*id);
    }
    if (!(*d)->Checkpoint().ok()) return;
    for (int i = 0; i < 120; ++i) {
      const uint64_t w = (uint64_t{1} << 12) + wrng.NextBelow(1 << 13);
      if (!(*d)->SetWeight(ids[wrng.NextBelow(ids.size())], w).ok()) return;
    }
  };

  // Probe for the tick count, then crash three-quarters in — after the
  // checkpoint, in the middle of the post-snapshot update stream, so the
  // recovered state is genuinely snapshot + replayed WAL tail.
  uint64_t total_ticks = 0;
  {
    MemEnv mem;
    FaultInjectingEnv probe(&mem, ~uint64_t{0},
                            FaultInjectingEnv::Mode::kDrop);
    script(&probe);
    total_ticks = probe.mutating_calls();
  }
  MemEnv mem;
  {
    FaultInjectingEnv fault(&mem, total_ticks * 3 / 4,
                            FaultInjectingEnv::Mode::kPartial);
    script(&fault);
  }
  auto recovered = RecoveryManager::Open(kDir, MakeOptions(&mem, "halt", 1));
  ASSERT_TRUE(recovered.ok());
  ASSERT_GT((*recovered)->recovery_stats().records_replayed, 0u)
      << "test design: the crash point must land after WAL records";

  // The control: the same (id, weight) state built without ever crashing.
  std::vector<ItemRecord> items;
  ASSERT_TRUE((*recovered)->DumpItems(&items).ok());
  ASSERT_EQ(items.size(), 48u);
  SamplerSpec spec;
  spec.seed = 777;
  auto control = MakeSampler("halt", spec);
  for (const ItemRecord& rec : items) {
    ASSERT_TRUE(control->InsertWeight(rec.weight).ok());
  }

  // Exact marginals at (α, β) = (1/8, 0): p_x = 8·w_x / Σw, uncapped by
  // the narrow weight band.
  double total = 0;
  for (const ItemRecord& rec : items) total += rec.weight.ToDouble();
  std::vector<double> probs(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    probs[i] = 8.0 * items[i].weight.ToDouble() / total;
    ASSERT_LT(probs[i], 1.0);
  }

  const uint64_t trials = 30000;
  const Rational64 alpha{1, 8}, beta{0, 1};
  std::map<ItemId, size_t> index;
  for (size_t i = 0; i < items.size(); ++i) index[items[i].id] = i;

  std::vector<uint64_t> recovered_hits(items.size(), 0);
  RandomEngine rng_a(601);
  std::vector<ItemId> buf;
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE((*recovered)->SampleInto(alpha, beta, rng_a, &buf).ok());
    for (const ItemId id : buf) {
      auto it = index.find(id);
      ASSERT_NE(it, index.end()) << "sampled an unknown id";
      ++recovered_hits[it->second];
    }
  }
  ExpectFrequencyGate(recovered_hits, trials, probs, 4.75,
                      "post-recovery sampler");

  // The never-crashed control faces the identical gate: equal state =>
  // equal (exact) distribution, so both pass or the backend is wrong.
  std::vector<uint64_t> control_hits(items.size(), 0);
  RandomEngine rng_b(602);
  for (uint64_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(control->SampleInto(alpha, beta, rng_b, &buf).ok());
    for (const ItemId id : buf) {
      // Control ids are fresh but insertion order matches `items`.
      ASSERT_LT(SlotIndexOf(id), items.size());
      ++control_hits[SlotIndexOf(id)];
    }
  }
  ExpectFrequencyGate(control_hits, trials, probs, 4.75,
                      "never-crashed control");
}

}  // namespace
}  // namespace dpss
