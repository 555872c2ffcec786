// Cross-process-shaped consistency tests for WAL-shipping replication
// (src/replica/, docs/REPLICATION.md): a primary server and two replica
// servers on MemEnv-backed loopback, driven through the real wire
// protocol. After a churn storm quiesces, all three DumpItems views must
// be identical record-for-record, replica-served samples must pass the
// shared statistical gates against the exact marginals, and mutations
// sent to a replica must bounce with kNotPrimary carrying the primary's
// address.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/env.h"
#include "replica/replica_sampler.h"
#include "server/client.h"
#include "server/server.h"
#include "statistical.h"

namespace dpss {
namespace server {
namespace {

ServerOptions PrimaryOptions(persist::MemEnv* env) {
  ServerOptions opts;
  opts.port = 0;
  opts.io_threads = 2;
  opts.backend = "sharded4:halt";
  opts.batch_window_us = 0;
  opts.durable_dir = "/primary";
  opts.env = env;
  opts.spec.seed = 4242;
  return opts;
}

ServerOptions ReplicaOptions(persist::MemEnv* env, int primary_port) {
  ServerOptions opts;
  opts.port = 0;
  opts.io_threads = 2;
  opts.backend = "sharded4:halt";
  opts.batch_window_us = 0;
  opts.durable_dir = "/mirror";
  opts.env = env;
  opts.spec.seed = 99;
  opts.replica_of = "127.0.0.1:" + std::to_string(primary_port);
  return opts;
}

std::unique_ptr<Server> MustStart(const ServerOptions& opts) {
  auto started = Server::Start(opts);
  EXPECT_TRUE(started.ok()) << started.status().message();
  return started.ok() ? std::move(*started) : nullptr;
}

std::unique_ptr<Client> Dial(const Server& server) {
  auto c = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.ok());
  return std::move(*c);
}

bool SameItems(const std::vector<ItemRecord>& a,
               const std::vector<ItemRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].weight.mult != b[i].weight.mult ||
        a[i].weight.exp != b[i].weight.exp) {
      return false;
    }
  }
  return true;
}

std::vector<ItemRecord> SortedDump(const Server& server) {
  std::vector<ItemRecord> items;
  Status st = server.DumpItems(&items);
  EXPECT_TRUE(st.ok()) << st.message();
  std::sort(items.begin(), items.end(),
            [](const ItemRecord& x, const ItemRecord& y) {
              return x.id < y.id;
            });
  return items;
}

// Polls until `replica`'s dump matches `want` (replication is
// asynchronous; the pull cadence is FollowerOptions::poll_ms = 10ms).
bool AwaitCatchUp(const Server& replica, const std::vector<ItemRecord>& want,
                  int deadline_ms) {
  for (int waited = 0; waited < deadline_ms; waited += 20) {
    if (SameItems(SortedDump(replica), want)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return SameItems(SortedDump(replica), want);
}

TEST(ReplicaConsistencyTest, ChurnStormConvergesOnAllReplicas) {
  persist::MemEnv prim_env, rep1_env, rep2_env;
  auto primary = MustStart(PrimaryOptions(&prim_env));
  ASSERT_NE(primary, nullptr);
  auto rep1 = MustStart(ReplicaOptions(&rep1_env, primary->port()));
  auto rep2 = MustStart(ReplicaOptions(&rep2_env, primary->port()));
  ASSERT_NE(rep1, nullptr);
  ASSERT_NE(rep2, nullptr);
  EXPECT_FALSE(primary->is_replica());
  EXPECT_TRUE(rep1->is_replica());
  EXPECT_TRUE(rep2->is_replica());

  // Churn storm against the primary: three rounds of insert/update/erase
  // so the shipped WAL covers every op kind, with a shadow map as ground
  // truth.
  auto client = Dial(*primary);
  std::map<ItemId, Weight> shadow;
  std::vector<ItemId> ids;
  for (int round = 0; round < 3; ++round) {
    std::vector<ItemId> born;
    for (int i = 0; i < 30; ++i) {
      const Weight w{static_cast<uint64_t>((round * 7 + i) % 10 + 1), 0};
      auto id = client->Insert(w);
      ASSERT_TRUE(id.ok()) << id.status().message();
      shadow[*id] = w;
      born.push_back(*id);
    }
    for (int i = 0; i < 10; ++i) {
      const Weight w{static_cast<uint64_t>(i % 8 + 1), 0};
      ASSERT_TRUE(client->SetWeight(born[i], w).ok());
      shadow[born[i]] = w;
    }
    for (int i = 10; i < 30; ++i) {
      ASSERT_TRUE(client->Erase(born[i]).ok());
      shadow.erase(born[i]);
    }
    ids.insert(ids.end(), born.begin(), born.begin() + 10);
  }
  ASSERT_EQ(shadow.size(), 30u);

  // Quiesce: the primary's own dump must equal the shadow, then both
  // replicas must converge to the identical record list.
  const std::vector<ItemRecord> truth = SortedDump(*primary);
  ASSERT_EQ(truth.size(), shadow.size());
  for (const ItemRecord& rec : truth) {
    auto it = shadow.find(rec.id);
    ASSERT_NE(it, shadow.end());
    EXPECT_EQ(rec.weight.mult, it->second.mult);
    EXPECT_EQ(rec.weight.exp, it->second.exp);
  }
  ASSERT_TRUE(AwaitCatchUp(*rep1, truth, 10000))
      << "replica 1 never converged";
  ASSERT_TRUE(AwaitCatchUp(*rep2, truth, 10000))
      << "replica 2 never converged";
  EXPECT_TRUE(rep1->replication_status().ok())
      << rep1->replication_status().message();
  EXPECT_TRUE(rep2->replication_status().ok())
      << rep2->replication_status().message();
  EXPECT_EQ(rep1->replica_epoch(), rep2->replica_epoch());
  EXPECT_EQ(rep1->replica_applied_seq(), rep2->replica_applied_seq());

  // Replica-served sample distribution: with α = 1, β = 0 every item's
  // inclusion probability is exactly w_x / W. Weights are small integers
  // with exp = 0, so the double-precision marginals below are exact.
  uint64_t total = 0;
  for (const ItemRecord& rec : truth) total += rec.weight.mult;
  std::vector<double> probs;
  std::map<ItemId, size_t> index;
  for (const ItemRecord& rec : truth) {
    index[rec.id] = probs.size();
    probs.push_back(static_cast<double>(rec.weight.mult) /
                    static_cast<double>(total));
  }

  constexpr uint64_t kTrials = 20000;
  constexpr int kPipeline = 200;
  auto rclient = Dial(*rep1);
  std::vector<uint64_t> hits(probs.size(), 0);
  Request sample;
  sample.type = MsgType::kSample;
  sample.alpha = Rational64{1, 1};
  sample.beta = Rational64{0, 1};
  sample.max_ids = 4096;
  for (uint64_t done = 0; done < kTrials; done += kPipeline) {
    for (int i = 0; i < kPipeline; ++i) rclient->SendRequest(sample);
    ASSERT_TRUE(rclient->Flush().ok());
    for (int i = 0; i < kPipeline; ++i) {
      auto resp = rclient->ReadResponse();
      ASSERT_TRUE(resp.ok()) << resp.status().message();
      ASSERT_EQ(resp->status, WireStatus::kOk);
      for (ItemId id : resp->ids) {
        auto it = index.find(id);
        ASSERT_NE(it, index.end()) << "replica sampled a dead id " << id;
        ++hits[it->second];
      }
    }
  }
  testing_util::ExpectFrequencyGate(hits, kTrials, probs, 4.75,
                                    "replica-served samples");

  // Mutations to a replica must bounce with the primary's address, and
  // must not have touched the replica's state.
  Request ins;
  ins.type = MsgType::kInsert;
  ins.weight = Weight{5, 0};
  rclient->SendRequest(ins);
  ASSERT_TRUE(rclient->Flush().ok());
  auto bounced = rclient->ReadResponse();
  ASSERT_TRUE(bounced.ok());
  EXPECT_EQ(bounced->status, WireStatus::kNotPrimary);
  EXPECT_EQ(bounced->primary_addr,
            "127.0.0.1:" + std::to_string(primary->port()));
  EXPECT_TRUE(SameItems(SortedDump(*rep1), truth));

  // The stats documents advertise the replication topology.
  auto rep_json = rclient->Stats();
  ASSERT_TRUE(rep_json.ok());
  EXPECT_NE(rep_json->find("\"role\": \"replica\""), std::string::npos)
      << *rep_json;
  auto prim_json = client->Stats();
  ASSERT_TRUE(prim_json.ok());
  EXPECT_NE(prim_json->find("\"role\": \"primary\""), std::string::npos)
      << *prim_json;
  EXPECT_NE(prim_json->find("\"replicas\": ["), std::string::npos)
      << *prim_json;
}

TEST(ReplicaConsistencyTest, LateJoinerBootstrapsFromSnapshot) {
  // A replica that dials in after the primary has checkpointed must
  // bootstrap from the snapshot (not replay from seq 1) and still
  // converge exactly.
  persist::MemEnv prim_env, rep_env;
  ServerOptions popts = PrimaryOptions(&prim_env);
  auto primary = MustStart(popts);
  ASSERT_NE(primary, nullptr);
  auto client = Dial(*primary);
  std::map<ItemId, Weight> shadow;
  for (int i = 0; i < 120; ++i) {
    const Weight w{static_cast<uint64_t>(i % 13 + 1), 0};
    auto id = client->Insert(w);
    ASSERT_TRUE(id.ok());
    shadow[*id] = w;
  }
  const std::vector<ItemRecord> truth = SortedDump(*primary);
  ASSERT_EQ(truth.size(), shadow.size());

  auto replica = MustStart(ReplicaOptions(&rep_env, primary->port()));
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(AwaitCatchUp(*replica, truth, 10000));
  EXPECT_GT(replica->replica_epoch(), 0u);
}

// Every replica query holds the replica's mutex, so a replica does not
// advertise concurrent_queries even over a sharded backend: a replica
// server gets no query pool until promotion.
TEST(ReplicaConsistencyTest, ReplicaSerializesQueries) {
  persist::MemEnv env;
  auto made = replica::ReplicaSampler::Create(&env, "/mirror",
                                              "sharded4:naive", SamplerSpec{});
  ASSERT_TRUE(made.ok()) << made.status().message();
  EXPECT_FALSE((*made)->capabilities().concurrent_queries);
}

}  // namespace
}  // namespace server
}  // namespace dpss
