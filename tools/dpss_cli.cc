// dpss_cli — interactive shell around the dpss::Sampler interface.
//
// Useful for poking at any registered backend, scripting reproductions,
// and inspecting snapshots. Reads commands from stdin (one per line, '#'
// comments ignored):
//
//   backend <name>             swap to a fresh sampler of that backend
//                              (current items are dropped); the sharded
//                              grammar works here: sharded:halt,
//                              sharded16:naive, ...
//   backends                   list registered backends (current marked *)
//   shards <k>                 set SamplerSpec::num_shards for the next
//                              'backend sharded:...' (default 8)
//   insert <weight>            add an item (prints its id)
//   insertbatch <w1> <w2> ...  add many items in one InsertBatch call
//   insertexp <mult> <exp>     add an item with weight mult·2^exp
//   erase <id>                 remove an item
//   set <id> <weight>          update an item's weight in place
//   setexp <id> <mult> <exp>   update to weight mult·2^exp
//   weight <id>                print an item's weight
//   sample <an> <ad> <bn> <bd> one PSS query with α=an/ad, β=bn/bd
//   mu <an> <ad> <bn> <bd>     expected sample size for (α, β)
//   stats                      backend-specific stats + memory
//   check                      run the structural invariant checker
//   save <file>                write a container snapshot (fsync'd;
//                              records backend name + spec). The
//                              fixed-(α, β) comparators rebuild,
//                              bucket_jump and odss are in-memory only:
//                              save, wal and recover refuse them
//   load <file>                load a container snapshot — recreates the
//                              backend the file names, items and ids intact
//   info <file>                print a snapshot's header without loading it
//                              (container format version included)
//   wal <dir> [sync_every]     go durable: recover <dir> (creating it on
//                              first use), then log every mutation to its
//                              write-ahead log (fsync per sync_every
//                              records; default 1)
//   recover <dir>              like wal, and print the recovery stats
//                              (snapshot epoch, records replayed, torn
//                              bytes truncated)
//   checkpoint [--incremental|--full]
//                              durable mode: snapshot + rotate the WAL.
//                              --incremental writes only the pages dirtied
//                              since the last checkpoint (arena-capable
//                              backends; falls back to full otherwise)
//   syncwal                    durable mode: force a WAL fsync now
//   seed <v>                   reseed (snapshot round trip)
//   connect <host:port>        client mode: route the verbs below through a
//                              running dpss-serverd over the wire protocol
//                              (insert, insertexp, erase, set, setexp,
//                              weight, sample, stats, ping); other commands
//                              are refused until 'disconnect'
//   disconnect                 leave client mode (the local sampler is
//                              untouched and becomes active again)
//   quit
//
// Misuse never kills the shell: every operation reports its Status, e.g.
//   > erase 999
//   error kInvalidId: no live item with this id
//
// Example:
//   printf 'backend naive\ninsert 10\nsample 1 1 0 1\nstats\n' | ./dpss_cli

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "concurrent/sharded_sampler.h"
#include "core/sampler.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "server/client.h"

namespace {

void PrintSample(const std::vector<dpss::ItemId>& sample) {
  std::printf("sampled %zu item(s):", sample.size());
  for (auto id : sample) std::printf(" %llu", (unsigned long long)id);
  std::printf("\n");
}

void PrintStatus(const dpss::Status& st) {
  if (st.ok()) {
    std::printf("ok\n");
  } else {
    std::printf("error %s: %s\n", dpss::StatusCodeName(st.code()),
                st.message());
  }
}

bool ParseU64(std::istringstream& in, uint64_t* v) {
  return static_cast<bool>(in >> *v);
}

// Client-mode dispatch: runs one command against a connected dpss-serverd.
// Returns false for commands that have no remote equivalent.
bool HandleRemote(dpss::server::Client& remote, const std::string& cmd,
                  std::istringstream& in) {
  if (cmd == "ping") {
    PrintStatus(remote.Ping());
  } else if (cmd == "insert" || cmd == "insertexp") {
    uint64_t mult, exp = 0;
    const bool ok = cmd == "insert"
                        ? ParseU64(in, &mult)
                        : (ParseU64(in, &mult) && ParseU64(in, &exp) &&
                           exp <= 0xffffffffull);
    if (!ok) {
      std::printf("usage: %s %s\n", cmd.c_str(),
                  cmd == "insert" ? "<weight>" : "<mult> <exp>");
      return true;
    }
    const auto id =
        remote.Insert(dpss::Weight(mult, static_cast<uint32_t>(exp)));
    if (id.ok()) {
      std::printf("id %llu\n", (unsigned long long)*id);
    } else {
      PrintStatus(id.status());
    }
  } else if (cmd == "erase") {
    uint64_t id;
    if (!ParseU64(in, &id)) {
      std::printf("usage: erase <id>\n");
      return true;
    }
    PrintStatus(remote.Erase(id));
  } else if (cmd == "set" || cmd == "setexp") {
    uint64_t id, mult, exp = 0;
    const bool ok = ParseU64(in, &id) && ParseU64(in, &mult) &&
                    (cmd == "set" ||
                     (ParseU64(in, &exp) && exp <= 0xffffffffull));
    if (!ok) {
      std::printf("usage: %s <id> %s\n", cmd.c_str(),
                  cmd == "set" ? "<weight>" : "<mult> <exp>");
      return true;
    }
    PrintStatus(remote.SetWeight(
        id, dpss::Weight(mult, static_cast<uint32_t>(exp))));
  } else if (cmd == "weight") {
    uint64_t id;
    if (!ParseU64(in, &id)) {
      std::printf("usage: weight <id>\n");
      return true;
    }
    const auto w = remote.GetWeight(id);
    if (w.ok()) {
      std::printf("weight %llu * 2^%u\n", (unsigned long long)w->mult,
                  w->exp);
    } else {
      PrintStatus(w.status());
    }
  } else if (cmd == "sample") {
    uint64_t an, ad, bn, bd;
    if (!ParseU64(in, &an) || !ParseU64(in, &ad) || !ParseU64(in, &bn) ||
        !ParseU64(in, &bd)) {
      std::printf("usage: sample <anum> <aden> <bnum> <bden>\n");
      return true;
    }
    const auto sample =
        remote.Sample(dpss::Rational64{an, ad}, dpss::Rational64{bn, bd});
    if (sample.ok()) {
      PrintSample(*sample);
    } else {
      PrintStatus(sample.status());
    }
  } else if (cmd == "stats") {
    const auto json = remote.Stats();
    if (json.ok()) {
      std::printf("%s", json->c_str());
    } else {
      PrintStatus(json.status());
    }
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main() {
  dpss::SamplerSpec spec;
  spec.seed = 2024;
  std::string backend = "halt";
  auto sampler = dpss::MakeSampler(backend, spec);
  // Non-null while the shell runs in durable (write-ahead-logged) mode;
  // always aliases `sampler`.
  dpss::persist::DurableSampler* durable = nullptr;
  // Non-null while in client mode ('connect'); local commands are refused
  // until 'disconnect'.
  std::unique_ptr<dpss::server::Client> remote;
  std::string line;
  while (std::getline(std::cin, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "connect") {
      std::string target;
      const size_t colon =
          (in >> target) ? target.rfind(':') : std::string::npos;
      if (colon == std::string::npos || colon + 1 >= target.size()) {
        std::printf("usage: connect <host:port>\n");
        continue;
      }
      const std::string host = target.substr(0, colon);
      const int port = std::atoi(target.c_str() + colon + 1);
      auto conn = dpss::server::Client::Connect(host, port);
      if (!conn.ok()) {
        PrintStatus(conn.status());
        continue;
      }
      remote = std::move(*conn);
      std::printf("connected to %s (local sampler idle until "
                  "'disconnect')\n",
                  target.c_str());
      continue;
    }
    if (cmd == "disconnect") {
      if (remote == nullptr) {
        std::printf("not connected\n");
      } else {
        remote.reset();
        std::printf("disconnected (local sampler active)\n");
      }
      continue;
    }
    if (remote != nullptr) {
      if (!HandleRemote(*remote, cmd, in)) {
        std::printf("'%s' is not available in client mode ('disconnect' "
                    "first)\n",
                    cmd.c_str());
      }
      continue;
    }

    if (cmd == "backend") {
      std::string name;
      if (!(in >> name)) {
        std::printf("usage: backend <name>\n");
        continue;
      }
      auto fresh = dpss::MakeSamplerChecked(name, spec);
      if (!fresh.ok()) {
        std::printf("cannot create '%s': %s: %s (try 'backends')\n",
                    name.c_str(), dpss::StatusCodeName(fresh.status().code()),
                    fresh.status().message());
        continue;
      }
      if (!sampler->empty()) {
        std::printf("note: dropping %llu item(s) from the old sampler\n",
                    (unsigned long long)sampler->size());
      }
      if (durable != nullptr) {
        std::printf("note: leaving durable mode (the directory keeps its "
                    "last durable state)\n");
        durable = nullptr;
      }
      sampler = std::move(*fresh);
      backend = name;
      std::printf("backend %s\n", backend.c_str());
    } else if (cmd == "backends") {
      for (const std::string& name : dpss::RegisteredSamplerNames()) {
        std::printf("%s %s\n", name == backend ? "*" : " ", name.c_str());
      }
      std::printf("  sharded[K]:<inner>  (thread-safe wrapper over a "
                  "parameterized inner: halt or naive; K from 'shards' "
                  "when omitted)\n");
    } else if (cmd == "shards") {
      // Validate against the sampler's real bound up front, so the value
      // is not confirmed here only to fail at the next 'backend' command.
      const uint64_t max = dpss::ShardedSampler::kMaxShards;
      uint64_t v;
      if (!ParseU64(in, &v) || v < 1 || v > max) {
        std::printf("usage: shards <k>   (1 <= k <= %llu)\n",
                    (unsigned long long)max);
        continue;
      }
      spec.num_shards = static_cast<int>(v);
      std::printf("shards %llu (applies to the next 'backend' command)\n",
                  (unsigned long long)v);
    } else if (cmd == "insert") {
      uint64_t w;
      if (!ParseU64(in, &w)) {
        std::printf("usage: insert <weight>\n");
        continue;
      }
      const auto id = sampler->Insert(w);
      if (id.ok()) {
        std::printf("id %llu\n", (unsigned long long)*id);
      } else {
        PrintStatus(id.status());
      }
    } else if (cmd == "insertbatch") {
      std::vector<uint64_t> weights;
      uint64_t w;
      while (ParseU64(in, &w)) weights.push_back(w);
      if (weights.empty()) {
        std::printf("usage: insertbatch <w1> <w2> ...\n");
        continue;
      }
      std::vector<dpss::ItemId> ids;
      const dpss::Status st = sampler->InsertBatch(weights, &ids);
      std::printf("inserted %zu item(s):", ids.size());
      for (auto id : ids) std::printf(" %llu", (unsigned long long)id);
      std::printf("\n");
      if (!st.ok()) PrintStatus(st);
    } else if (cmd == "insertexp") {
      uint64_t mult, exp;
      if (!ParseU64(in, &mult) || !ParseU64(in, &exp) ||
          exp > 0xffffffffull) {
        std::printf("usage: insertexp <mult> <exp>\n");
        continue;
      }
      const auto id = sampler->InsertWeight(
          dpss::Weight(mult, static_cast<uint32_t>(exp)));
      if (id.ok()) {
        std::printf("id %llu\n", (unsigned long long)*id);
      } else {
        PrintStatus(id.status());
      }
    } else if (cmd == "erase") {
      uint64_t id;
      if (!ParseU64(in, &id)) {
        std::printf("usage: erase <id>\n");
        continue;
      }
      PrintStatus(sampler->Erase(id));
    } else if (cmd == "set") {
      uint64_t id, w;
      if (!ParseU64(in, &id) || !ParseU64(in, &w)) {
        std::printf("usage: set <id> <weight>\n");
        continue;
      }
      PrintStatus(sampler->SetWeight(id, w));
    } else if (cmd == "setexp") {
      uint64_t id, mult, exp;
      if (!ParseU64(in, &id) || !ParseU64(in, &mult) || !ParseU64(in, &exp) ||
          exp > 0xffffffffull) {
        std::printf("usage: setexp <id> <mult> <exp>\n");
        continue;
      }
      PrintStatus(sampler->SetWeight(
          id, dpss::Weight(mult, static_cast<uint32_t>(exp))));
    } else if (cmd == "weight") {
      uint64_t id;
      if (!ParseU64(in, &id)) {
        std::printf("usage: weight <id>\n");
        continue;
      }
      const auto w = sampler->GetWeight(id);
      if (w.ok()) {
        std::printf("weight %llu * 2^%u\n", (unsigned long long)w->mult,
                    w->exp);
      } else {
        PrintStatus(w.status());
      }
    } else if (cmd == "sample" || cmd == "mu") {
      uint64_t an, ad, bn, bd;
      if (!ParseU64(in, &an) || !ParseU64(in, &ad) || !ParseU64(in, &bn) ||
          !ParseU64(in, &bd)) {
        std::printf("usage: %s <anum> <aden> <bnum> <bden>\n", cmd.c_str());
        continue;
      }
      const dpss::Rational64 alpha{an, ad}, beta{bn, bd};
      if (cmd == "sample") {
        std::vector<dpss::ItemId> out;
        const dpss::Status st = sampler->SampleInto(alpha, beta, &out);
        if (st.ok()) {
          PrintSample(out);
        } else {
          PrintStatus(st);
        }
      } else {
        const auto mu = sampler->ExpectedSampleSize(alpha, beta);
        if (mu.ok()) {
          std::printf("mu = %.6f\n", *mu);
        } else {
          PrintStatus(mu.status());
        }
      }
    } else if (cmd == "stats") {
      std::printf("%s\n", sampler->DebugString().c_str());
      std::printf("~memory: %zu B\n", sampler->ApproxMemoryBytes());
    } else if (cmd == "check") {
      const dpss::Status st = sampler->CheckInvariants();
      if (st.ok()) {
        std::printf("invariants OK\n");
      } else {
        PrintStatus(st);
      }
    } else if (cmd == "save") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: save <file>\n");
        continue;
      }
      // In durable mode snapshot the *inner* sampler: its registry name in
      // the header is what makes the file loadable anywhere ("durable:x"
      // is not a constructible backend).
      const dpss::Sampler& to_save =
          durable != nullptr ? durable->inner() : *sampler;
      const dpss::Status st = dpss::persist::SaveSamplerToFile(
          to_save, spec, dpss::persist::SystemEnv(), path);
      if (st.ok()) {
        std::printf("saved %s snapshot of %llu item(s) to %s\n",
                    to_save.name(), (unsigned long long)to_save.size(),
                    path.c_str());
      } else {
        PrintStatus(st);
      }
    } else if (cmd == "load" || cmd == "info") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: %s <file>\n", cmd.c_str());
        continue;
      }
      std::string bytes;
      const dpss::Status read = dpss::persist::SystemEnv()->ReadFileToString(
          path, &bytes);
      if (!read.ok()) {
        PrintStatus(read);
        continue;
      }
      const auto info = dpss::persist::ReadSnapshotInfo(bytes);
      if (!info.ok()) {
        PrintStatus(info.status());
        continue;
      }
      std::printf("container v%u%s backend=%s items=%llu total_weight=%s\n",
                  info->version,
                  info->version == dpss::persist::kContainerVersionArena
                      ? " (arena image)"
                      : "",
                  info->backend.c_str(), (unsigned long long)info->size,
                  info->total_weight.ToDecimalString().c_str());
      if (cmd == "info") continue;
      auto loaded = dpss::persist::LoadSampler(bytes);
      if (!loaded.ok()) {
        PrintStatus(loaded.status());
        continue;
      }
      if (durable != nullptr) {
        std::printf("note: leaving durable mode\n");
        durable = nullptr;
      }
      sampler = std::move(*loaded);
      backend = info->backend;
      spec = info->spec;
      std::printf("loaded %llu item(s) into a fresh '%s'\n",
                  (unsigned long long)sampler->size(), backend.c_str());
    } else if (cmd == "wal" || cmd == "recover") {
      std::string dir;
      if (!(in >> dir)) {
        std::printf("usage: %s <dir> [sync_every]\n", cmd.c_str());
        continue;
      }
      uint64_t sync_every = 1;
      ParseU64(in, &sync_every);
      dpss::persist::DurableOptions opts;
      opts.backend = backend;
      opts.spec = spec;
      opts.wal_sync_every = static_cast<uint32_t>(sync_every);
      auto opened = dpss::persist::RecoveryManager::Open(dir, opts);
      if (!opened.ok()) {
        PrintStatus(opened.status());
        continue;
      }
      const dpss::persist::RecoveryStats& rs = (*opened)->recovery_stats();
      if (rs.fresh_start) {
        std::printf("fresh durable state in %s\n", dir.c_str());
      } else {
        std::printf(
            "recovered epoch %llu (container v%u, %llu delta(s)): %llu "
            "record(s) / %llu op(s) replayed, %llu torn byte(s) truncated, "
            "%llu bad snapshot(s) skipped\n",
            (unsigned long long)rs.snapshot_epoch, rs.snapshot_version,
            (unsigned long long)rs.deltas_applied,
            (unsigned long long)rs.records_replayed,
            (unsigned long long)rs.ops_replayed,
            (unsigned long long)rs.wal_bytes_truncated,
            (unsigned long long)rs.snapshots_skipped);
      }
      durable = opened->get();
      sampler = std::move(*opened);
      // Track the *inner* registry name: the directory's snapshot may have
      // picked a different backend than requested, and "durable:x" is not
      // a name later 'wal'/'backend' commands could construct.
      backend = durable->inner().name();
      std::printf("%s: %llu item(s), wal fsync every %llu record(s)\n",
                  sampler->name(), (unsigned long long)sampler->size(),
                  (unsigned long long)(sync_every == 0 ? 0 : sync_every));
    } else if (cmd == "checkpoint" || cmd == "syncwal") {
      if (durable == nullptr) {
        std::printf("not in durable mode (use 'wal <dir>' first)\n");
        continue;
      }
      if (cmd == "checkpoint") {
        std::string flag;
        in >> flag;
        dpss::Status st;
        if (flag == "--incremental") {
          st = durable->Checkpoint(dpss::persist::CheckpointMode::kIncremental);
        } else if (flag == "--full" || flag.empty()) {
          st = durable->Checkpoint(dpss::persist::CheckpointMode::kFull);
        } else {
          std::printf("usage: checkpoint [--incremental|--full]\n");
          continue;
        }
        if (st.ok()) {
          std::printf("checkpointed to epoch %llu\n",
                      (unsigned long long)durable->epoch());
        } else {
          PrintStatus(st);
        }
      } else {
        PrintStatus(durable->SyncWal());
      }
    } else if (cmd == "seed") {
      uint64_t v;
      if (!ParseU64(in, &v)) {
        std::printf("usage: seed <v>\n");
        continue;
      }
      // Reseeding round-trips the item set through a snapshot, so it needs
      // a snapshot-capable backend (and a registry-creatable one — leave
      // durable mode first).
      if (durable != nullptr) {
        std::printf("not supported in durable mode (use 'backend' first)\n");
        continue;
      }
      std::string bytes;
      dpss::Status st = sampler->Serialize(&bytes);
      if (st.ok()) {
        spec.seed = v;
        auto reseeded = dpss::MakeSampler(backend, spec);
        st = reseeded->Restore(bytes);
        if (st.ok()) sampler = std::move(reseeded);
      }
      PrintStatus(st);
    } else {
      std::printf("unknown command: %s\n", cmd.c_str());
    }
  }
  return 0;
}
