// The traced run: per-layer numbers for one workload, measured from outside
// by timing calls into each layer's public functions with the workload's
// items, parameters and operation mix. Every timed block is a span; the
// spans are kept in memory and written out when the run ends.
//
// Layers: random/ (exact coins and variates), core/ (DpssSampler direct),
// the Sampler interface (MakeSampler("halt")), concurrent/ (sharded8:halt),
// persist/ (RecoveryManager::Open, DurableSampler on a real directory) and
// server/ (Server::Start, Client, the STATS document).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bigint/u128.h"
#include "concurrent/sharded_sampler.h"
#include "core/dpss_sampler.h"
#include "core/sampler.h"
#include "inproc.h"
#include "persist/recovery.h"
#include "random/bernoulli.h"
#include "random/geometric.h"
#include "served.h"
#include "util.h"

namespace perfbench {

using dpss::ItemId;
using dpss::Rational64;

namespace {

constexpr Rational64 kOne{1, 1};
constexpr Rational64 kZero{0, 1};
constexpr Rational64 kMu64Alpha{1, 64};
// β far above α·Σw: every item's probability is ~0, so a query costs only
// the fixed per-call floor (per shard, on the sharded wrapper).
constexpr Rational64 kHugeBeta{uint64_t{1} << 62, 1};

// Times `block` (which performs `ops` operations) repeatedly for at least
// `budget_ns` and three repetitions; returns the median ns per operation.
template <class F>
double NsPerOp(Tracer* tr, uint32_t parent, const char* name, uint64_t ops,
               uint64_t budget_ns, F&& block) {
  std::vector<double> per_op;
  const uint64_t start = NowNs();
  do {
    const uint32_t span = tr->Begin(name, parent);
    const uint64_t t0 = NowNs();
    block();
    const uint64_t dt = NowNs() - t0;
    tr->End(span);
    per_op.push_back(static_cast<double>(dt) / static_cast<double>(ops));
  } while (per_op.size() < 3 || NowNs() - start < budget_ns);
  return Median(per_op);
}

// Queries per timed block, sized so a block takes about a millisecond.
uint64_t QueriesPerBlock(double mu) { return mu > 8 ? 32 : 256; }

template <class S>
double QueryNs(Tracer* tr, uint32_t parent, const char* name, S* s,
               Rational64 alpha, Rational64 beta, double mu, uint64_t budget) {
  std::vector<ItemId> out;
  const uint64_t q = QueriesPerBlock(mu);
  return NsPerOp(tr, parent, name, q, budget, [&] {
    for (uint64_t i = 0; i < q; ++i) s->SampleInto(alpha, beta, &out);
  });
}

// A mutation stream over the ids the sampler was loaded with, following
// the workload's mutation mix. Erased ids leave the candidate list, so the
// stream applies cleanly to any sampler holding the same ids.
std::vector<dpss::Op> MutationStream(Gen& gen, const Workload& w,
                                     std::vector<ItemId> ids, size_t count) {
  Workload mutations_only = w;
  mutations_only.sample_share = 0;
  std::vector<dpss::Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    OpKind k = gen.Pick(mutations_only);
    if (k == OpKind::kErase && ids.size() <= 1) k = OpKind::kInsert;
    if (k == OpKind::kInsert) {
      ops.push_back(dpss::Op::Insert(gen.Weight()));
    } else if (k == OpKind::kSetWeight) {
      ops.push_back(dpss::Op::SetWeight(ids[gen.Below(ids.size())], gen.Weight()));
    } else {
      const size_t i = gen.Below(ids.size());
      ops.push_back(dpss::Op::Erase(ids[i]));
      ids[i] = ids.back();
      ids.pop_back();
    }
  }
  return ops;
}

// Applies `ops` in ApplyBatch calls of `batch` ops; returns the median ns
// per op over the batches, or -1 when an op failed.
double ApplyNsPerOp(Tracer* tr, uint32_t parent, const char* name,
                    dpss::Sampler* s, const std::vector<dpss::Op>& ops,
                    size_t batch) {
  std::vector<double> per_op;
  for (size_t i = 0; i + batch <= ops.size(); i += batch) {
    const uint32_t span = tr->Begin(name, parent);
    const uint64_t t0 = NowNs();
    const bool ok =
        s->ApplyBatch(std::span<const dpss::Op>(ops.data() + i, batch)).ok();
    const uint64_t dt = NowNs() - t0;
    tr->End(span);
    if (!ok) return -1;
    per_op.push_back(static_cast<double>(dt) / static_cast<double>(batch));
  }
  return Median(per_op);
}

uint64_t SnapshotBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 || name.rfind("delta-", 0) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

double OpNs(double ns_or_neg, Report* r, const char* what) {
  if (ns_or_neg < 0) r->Fail(std::string(what) + ": an operation failed");
  return ns_or_neg;
}

}  // namespace

void RunTraced(const Workload& w, const Args& a, Report* r) {
  const uint64_t n = ScaledItems(w, a);
  const uint64_t budget = static_cast<uint64_t>(a.seconds * 1e9 / 40);
  Tracer tracer;
  Tracer* tr = &tracer;
  Gen gen(a.seed);
  std::vector<uint64_t> weights(n);
  for (uint64_t& x : weights) x = gen.Weight();
  const double mu = AnalyticMu(weights, w.alpha, w.beta);
  uint64_t total = 0;
  for (uint64_t x : weights) total += x;
  const std::string backend = dpss::server::ServerOptions().backend;
  r->Detail("backend", backend);
  r->Detail("items", static_cast<double>(n));
  PinThisThread(Cpu::kClientA);

  // --- random/: the u128 coin and variate the HALT query path draws.
  {
    const uint32_t layer = tr->Begin("random");
    dpss::RandomEngine rng(a.seed);
    const dpss::U128 den = total;
    uint64_t sink = 0;
    size_t i = 0;
    r->Metric("random.bernoulli_rational_ns",
              NsPerOp(tr, layer, "random.bernoulli_rational", 4096, budget, [&] {
                for (int k = 0; k < 4096; ++k) {
                  sink += dpss::SampleBernoulliRational(
                      dpss::U128(weights[i]) * 64, den, rng);
                  i = i + 1 == n ? 0 : i + 1;
                }
              }),
              "ns");
    r->Metric("random.bounded_geo_ns",
              NsPerOp(tr, layer, "random.bounded_geo", 4096, budget, [&] {
                for (int k = 0; k < 4096; ++k) {
                  sink += dpss::SampleBoundedGeo(dpss::U128(64), dpss::U128(n),
                                                 n, rng);
                }
              }),
              "ns");
    r->Detail("random.sink", static_cast<double>(sink));
    tr->End(layer);
  }

  // --- core/: DpssSampler called directly.
  double core_mu1 = 0;
  {
    const uint32_t layer = tr->Begin("core");
    dpss::DpssSampler core(dpss::DpssSampler::Options{a.seed});
    std::vector<ItemId> ids;
    ids.reserve(n);
    for (uint64_t x : weights) ids.push_back(core.Insert(x));
    core_mu1 = QueryNs(tr, layer, "core.query_mu1", &core, kOne, kZero, 1, budget);
    r->Metric("core.query_mu1_ns", core_mu1, "ns");
    r->Metric("core.query_mu64_ns",
              QueryNs(tr, layer, "core.query_mu64", &core, kMu64Alpha, kZero,
                      64, budget),
              "ns");
    Gen g(a.seed + 1);
    r->Metric("core.setweight_ns",
              NsPerOp(tr, layer, "core.setweight", 1024, budget, [&] {
                for (int k = 0; k < 1024; ++k) {
                  core.SetWeight(ids[g.Below(n)], g.Weight());
                }
              }),
              "ns");
    // Inserts and erases alternate in blocks so the size stays at n.
    std::vector<double> ins, era;
    std::vector<ItemId> fresh(1024);
    const uint64_t start = NowNs();
    do {
      uint32_t span = tr->Begin("core.insert", layer);
      uint64_t t0 = NowNs();
      for (ItemId& id : fresh) id = core.Insert(g.Weight());
      ins.push_back(static_cast<double>(NowNs() - t0) / 1024);
      tr->End(span);
      span = tr->Begin("core.erase", layer);
      t0 = NowNs();
      for (ItemId id : fresh) core.Erase(id);
      era.push_back(static_cast<double>(NowNs() - t0) / 1024);
      tr->End(span);
    } while (ins.size() < 3 || NowNs() - start < 2 * budget);
    r->Metric("core.insert_ns", Median(ins), "ns");
    r->Metric("core.erase_ns", Median(era), "ns");
    core.CheckInvariants();
    tr->End(layer);
  }

  // --- The Sampler interface over the same structure ("halt"), and the
  // cost of per-operation spans measured on a replay of the workload's op
  // stream (spans off, then on).
  double iface_mu1 = 0, iface_mu64 = 0;
  {
    const uint32_t layer = tr->Begin("iface");
    auto halt = dpss::MakeSampler("halt", dpss::SamplerSpec{});
    std::vector<ItemId> ids;
    if (halt == nullptr || !halt->InsertBatch(weights, &ids).ok()) {
      r->Fail("building the halt sampler failed");
      return;
    }
    iface_mu1 = QueryNs(tr, layer, "iface.query_mu1", halt.get(), kOne, kZero,
                        1, budget);
    iface_mu64 = QueryNs(tr, layer, "iface.query_mu64", halt.get(), kMu64Alpha,
                         kZero, 64, budget);
    r->Metric("iface.query_mu1_ns", iface_mu1, "ns");
    r->Metric("iface.query_mu64_ns", iface_mu64, "ns");
    r->Metric("iface.dispatch_ratio", iface_mu1 / core_mu1, "ratio");

    LivePool pool;
    for (size_t i = 0; i < ids.size(); ++i) pool.Add(ids[i], weights[i]);
    Gen g(a.seed + 2);
    std::vector<ItemId> out;
    const size_t replay_ops = mu > 8 ? 2048 : 16384;
    std::vector<double> off, on;
    uint64_t failed = 0;
    auto replay_one = [&] {
      const Step step = Bind(NextStep(g, w), pool, n);
      if (!Apply(halt.get(), w, step, &pool, &out)) ++failed;
    };
    for (int rep = 0; rep < 3; ++rep) {
      uint64_t t0 = NowNs();
      for (size_t k = 0; k < replay_ops; ++k) replay_one();
      off.push_back(static_cast<double>(NowNs() - t0));
      const uint32_t replay = tr->Begin("iface.replay", layer);
      t0 = NowNs();
      for (size_t k = 0; k < replay_ops; ++k) {
        const uint32_t span = tr->Begin("iface.op", replay, k);
        replay_one();
        tr->End(span);
      }
      on.push_back(static_cast<double>(NowNs() - t0));
      tr->End(replay);
    }
    if (failed != 0) r->Fail("interface replay: an operation failed");
    r->Attempt(6 * replay_ops, failed);
    r->Metric("trace.overhead_ratio", Median(on) / Median(off), "ratio");
    tr->End(layer);
  }

  // --- concurrent/: the sharded wrapper, against "halt" at the same μ.
  {
    const uint32_t layer = tr->Begin("sharded");
    auto sharded = dpss::MakeSampler("sharded8:halt", dpss::SamplerSpec{});
    if (sharded == nullptr || !sharded->InsertBatch(weights, nullptr).ok()) {
      r->Fail("building sharded8:halt failed");
      return;
    }
    const double s64 = QueryNs(tr, layer, "sharded.query_mu64", sharded.get(),
                               kMu64Alpha, kZero, 64, budget);
    const double s1 = QueryNs(tr, layer, "sharded.query_mu1", sharded.get(),
                              kOne, kZero, 1, budget);
    r->Metric("sharded.query_mu64_ns", s64, "ns");
    r->Metric("sharded.query_mu1_ns", s1, "ns");
    r->Metric("sharded.query_mu0_ns",
              QueryNs(tr, layer, "sharded.query_mu0", sharded.get(), kOne,
                      kHugeBeta, 0, budget),
              "ns");
    r->Metric("sharded.amplification_mu64", s64 / iface_mu64, "ratio");
    r->Metric("sharded.amplification_mu1", s1 / iface_mu1, "ratio");
    const auto* typed = dynamic_cast<const dpss::ShardedSampler*>(sharded.get());
    double skew = 0;
    if (typed != nullptr) {
      const auto occ = typed->ShardOccupancy();
      double max_live = 0, sum_live = 0;
      for (const auto& s : occ) {
        max_live = std::max(max_live, static_cast<double>(s.live));
        sum_live += static_cast<double>(s.live);
      }
      skew = max_live / (sum_live / static_cast<double>(occ.size()));
    }
    r->Metric("sharded.shard_skew", skew, "ratio");
    tr->End(layer);
  }

  // --- persist/: the served backend, in memory and durable on a real
  // directory, applying the same mutation stream.
  double inproc_query_ns = 0;
  {
    const uint32_t layer = tr->Begin("persist");
    const std::string dir = a.workdir + "/traced-" + w.name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const size_t batch = 64;
    const size_t stream_ops = batch * 64;
    std::vector<ItemId> ids;
    std::vector<dpss::Op> stream;
    double inmem_apply = 0;
    {
      auto mem = dpss::MakeSampler(backend, dpss::SamplerSpec{});
      if (mem == nullptr || !mem->InsertBatch(weights, &ids).ok()) {
        r->Fail("building the in-memory " + backend + " failed");
        return;
      }
      inproc_query_ns = QueryNs(tr, layer, "persist.inmem_query", mem.get(),
                                w.alpha, w.beta, mu, budget);
      Gen g(a.seed + 3);
      stream = MutationStream(g, w, ids, stream_ops);
      inmem_apply = OpNs(ApplyNsPerOp(tr, layer, "persist.inmem_apply",
                                      mem.get(), stream, batch),
                         r, "in-memory apply");
      r->Metric("persist.inmem_apply_ns_per_op", inmem_apply, "ns");
    }
    dpss::persist::DurableOptions opt;
    opt.backend = backend;
    opt.wal_sync_every = 0;  // apply cost without fsync; fsync timed apart
    auto opened = dpss::persist::RecoveryManager::Open(dir, opt);
    if (!opened.ok()) {
      r->Fail(std::string("RecoveryManager::Open: ") + opened.status().message());
      return;
    }
    std::unique_ptr<dpss::persist::DurableSampler> durable = std::move(*opened);
    std::vector<ItemId> durable_ids;
    if (!durable->InsertBatch(weights, &durable_ids).ok() ||
        durable_ids != ids || !durable->SyncWal().ok()) {
      r->Fail("loading the durable sampler failed");
      return;
    }
    const uint64_t wal_before = durable->wal_bytes();
    const double apply = OpNs(
        ApplyNsPerOp(tr, layer, "persist.apply", durable.get(), stream, batch),
        r, "durable apply");
    r->Metric("persist.apply_ns_per_op", apply, "ns");
    r->Metric("persist.wal_bytes_per_op",
              static_cast<double>(durable->wal_bytes() - wal_before) /
                  static_cast<double>(stream.size()),
              "bytes");
    std::vector<double> fsyncs;
    Gen g(a.seed + 4);
    for (int k = 0; k < 20; ++k) {
      const dpss::Op op = dpss::Op::SetWeight(ids[g.Below(n / 2)], g.Weight());
      if (!durable->ApplyBatch(std::span<const dpss::Op>(&op, 1)).ok()) {
        // The stream may have erased this id; pick another next time.
        continue;
      }
      const uint32_t span = tr->Begin("persist.fsync", layer);
      const uint64_t t0 = NowNs();
      const bool ok = durable->SyncWal().ok();
      fsyncs.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      tr->End(span);
      if (!ok) r->Fail("SyncWal failed");
    }
    r->Metric("persist.fsync_us", Median(fsyncs), "us");
    std::vector<double> ckpt;
    for (int k = 0; k < 3; ++k) {
      const uint32_t span = tr->Begin("persist.checkpoint", layer);
      const uint64_t t0 = NowNs();
      if (!durable->Checkpoint(dpss::persist::CheckpointMode::kFull).ok()) {
        r->Fail("Checkpoint failed");
      }
      ckpt.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      tr->End(span);
    }
    r->Metric("persist.checkpoint_ms", Median(ckpt), "ms");
    r->Metric("persist.checkpoint_bytes",
              static_cast<double>(SnapshotBytes(dir)), "bytes");
    const uint64_t live = durable->size();
    durable.reset();
    std::vector<double> opens;
    for (int k = 0; k < 3; ++k) {
      const uint32_t span = tr->Begin("persist.open", layer);
      const uint64_t t0 = NowNs();
      auto reopened = dpss::persist::RecoveryManager::Open(dir, opt);
      opens.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      tr->End(span);
      if (!reopened.ok() || (*reopened)->size() != live) {
        r->Fail("reopening the durable directory failed");
      }
    }
    r->Metric("persist.open_ms", Median(opens), "ms");
    r->Metric("persist.durable_ratio", apply / inmem_apply, "ratio");
    std::filesystem::remove_all(dir, ec);
    tr->End(layer);
  }

  // --- server/: the workload's op mix over the wire, unloaded (window 1)
  // for latencies, then two pipelined connections for batching; STATS is
  // scraped after each.
  {
    const uint32_t layer = tr->Begin("server");
    const std::string dir = a.workdir + "/traced-server-" + w.name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    PinThisThread(Cpu::kServer);  // the server's threads inherit this
    auto started = dpss::server::Server::Start(MakeServerOptions(w, dir));
    PinThisThread(Cpu::kClientA);
    if (!started.ok()) {
      r->Fail(std::string("Server::Start: ") + started.status().message());
      return;
    }
    std::unique_ptr<dpss::server::Server> server = std::move(*started);
    const int port = server->port();
    Shadow shadow;
    std::vector<ItemId> pool;
    Gen g(a.seed);
    const uint32_t load = tr->Begin("server.load", layer);
    if (!LoadItems(port, n, g, &shadow, &pool)) r->Fail("server load failed");
    tr->End(load);

    auto client = dpss::server::Client::Connect("127.0.0.1", port);
    std::vector<float> client_sample_us;
    uint64_t failed = 0;
    if (client.ok()) {
      const uint32_t unloaded = tr->Begin("server.unloaded", layer);
      const uint64_t deadline = NowNs() + 4 * budget;
      uint64_t reqno = 0;
      std::vector<uint32_t> spans;
      Pipeline(
          **client, 1,
          [&](dpss::server::Request* req) {
            if (NowNs() >= deadline) return false;
            *req = MakeRequest(g, w, &pool);
            spans.push_back(tr->Begin("server.request", unloaded, reqno++));
            r->Attempt(1, 0);
            return true;
          },
          [&](const dpss::server::Request& req,
              const dpss::server::Response& resp, uint64_t sent_ns) {
            tr->End(spans.back());
            if (resp.status != dpss::server::WireStatus::kOk) {
              ++failed;
              r->Attempt(0, 1);
              return;
            }
            if (req.type == dpss::server::MsgType::kSample) {
              client_sample_us.push_back(
                  static_cast<float>(NowNs() - sent_ns) * 1e-3f);
              shadow.Sampled(resp.ids, sent_ns);
            } else {
              shadow.Acked(req, resp, NowNs());
              if (req.type == dpss::server::MsgType::kInsert) {
                pool.push_back(resp.id);
              }
            }
          });
      tr->End(unloaded);
    }
    if (!client.ok() || failed != 0) r->Fail("unloaded server run failed");
    const std::string s1 = FetchStats(port);
    if (StatsNumber(s1, {"ops", "sample", "p50_ns"}) < 0 ||
        StatsNumber(s1, {"ops", "setweight", "p50_ns"}) < 0 ||
        StatsNumber(s1, {"batch", "batches"}) < 0) {
      r->Fail("STATS lacks ops.sample, ops.setweight or batch counters");
    }
    const double sample_p50_us =
        StatsNumber(s1, {"ops", "sample", "p50_ns"}) * 1e-3;
    r->Metric("server.sample_p50_us", sample_p50_us, "us");
    r->Metric("server.write_p50_us",
              StatsNumber(s1, {"ops", "setweight", "p50_ns"}) * 1e-3, "us");
    r->Metric("server.wire_p50_us",
              Summarize(client_sample_us).p50 - sample_p50_us, "us");
    r->Metric("server.inproc_query_us", inproc_query_ns * 1e-3, "us");
    r->Metric("server.overhead_ratio", sample_p50_us / (inproc_query_ns * 1e-3),
              "ratio");

    // Pipelined: how much work each batch and query burst carries.
    const uint32_t loaded = tr->Begin("server.pipelined", layer);
    const uint64_t deadline = NowNs() + 4 * budget;
    std::vector<ItemId> pools[2];
    for (size_t i = 0; i < pool.size(); ++i) pools[i % 2].push_back(pool[i]);
    std::thread threads[2];
    for (int t = 0; t < 2; ++t) {
      threads[t] = std::thread([&, t] {
        PinThisThread(t == 0 ? Cpu::kClientA : Cpu::kClientB);
        auto c = dpss::server::Client::Connect("127.0.0.1", port);
        if (!c.ok()) return;
        Gen tg(a.seed + 10 + static_cast<uint64_t>(t));
        std::vector<ItemId> mine = pools[t];
        Pipeline(
            **c, w.window > 0 ? w.window : 16,
            [&](dpss::server::Request* req) {
              if (NowNs() >= deadline) return false;
              *req = MakeRequest(tg, w, &mine);
              return true;
            },
            [&](const dpss::server::Request& req,
                const dpss::server::Response& resp, uint64_t) {
              if (resp.status == dpss::server::WireStatus::kOk &&
                  req.type == dpss::server::MsgType::kInsert) {
                mine.push_back(resp.id);
              }
            });
      });
    }
    for (std::thread& th : threads) th.join();
    tr->End(loaded);
    const std::string s2 = FetchStats(port);
    auto delta = [&](const char* key) {
      return StatsNumber(s2, {"batch", key}) - StatsNumber(s1, {"batch", key});
    };
    r->Metric("server.ops_per_batch",
              delta("batched_ops") / std::max(1.0, delta("batches")), "count");
    r->Metric("server.queries_per_burst",
              delta("burst_queries") / std::max(1.0, delta("query_bursts")),
              "count");
    server->RequestDrain();
    server->WaitUntilStopped();
    server.reset();
    std::filesystem::remove_all(dir, ec);
    tr->End(layer);
  }

  const std::string spans = a.outdir + "/spans-" + w.name + "-seed" +
                            std::to_string(a.seed) + ".json";
  if (tracer.WriteJson(spans)) r->Detail("spans_file", spans);
  r->Detail("spans", static_cast<double>(tracer.size()));
}

}  // namespace perfbench
