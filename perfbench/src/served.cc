// serve_read and serve_durable_write: a server::Server started in this
// process on an ephemeral localhost port, driven over TCP by at most two
// client threads. The latency phase is an open loop at the workload's fixed
// rate; the throughput phase is a closed loop of two connections with a
// fixed pipelining window.

#include "served.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/sampler.h"
#include "persist/snapshot.h"
#include "server/protocol.h"

namespace perfbench {

using dpss::ItemId;
using dpss::Weight;
using dpss::server::Client;
using dpss::server::MsgType;
using dpss::server::Request;
using dpss::server::Response;
using dpss::server::WireStatus;

namespace {

// Waits until `due_ns`: sleeps until shortly before it, then spins, so the
// open loop's send times are not at the mercy of timer slack.
void WaitUntil(uint64_t due_ns) {
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > 200'000) {
      const uint64_t nap = due_ns - now - 150'000;
      timespec ts{static_cast<time_t>(nap / 1'000'000'000),
                  static_cast<long>(nap % 1'000'000'000)};
      nanosleep(&ts, nullptr);
    }
  }
}

// A plain blocking socket for the open loop: one thread writes requests at
// their due times while another reads replies, which the (single-threaded)
// Client cannot do on one connection.
int ConnectRaw(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int on = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  timeval tv{30, 0};  // a stuck server fails the run instead of hanging it
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Request MakeRequest(Gen& gen, const Workload& w, std::vector<ItemId>* pool) {
  Request req;
  OpKind kind = gen.Pick(w);
  if (kind != OpKind::kSample && kind != OpKind::kInsert && pool->size() <= 1) {
    kind = OpKind::kInsert;
  }
  switch (kind) {
    case OpKind::kSample:
      req.type = MsgType::kSample;
      req.alpha = w.alpha;
      req.beta = w.beta;
      break;
    case OpKind::kInsert:
      req.type = MsgType::kInsert;
      req.weight = Weight::FromU64(gen.Weight());
      break;
    case OpKind::kSetWeight:
      req.type = MsgType::kSetWeight;
      req.id = (*pool)[gen.Below(pool->size())];
      req.weight = Weight::FromU64(gen.Weight());
      break;
    case OpKind::kErase: {
      // The erased id leaves the pool now, so no later request targets it.
      const size_t i = gen.Below(pool->size());
      req.type = MsgType::kErase;
      req.id = (*pool)[i];
      (*pool)[i] = pool->back();
      pool->pop_back();
      break;
    }
  }
  return req;
}

void Shadow::Acked(const Request& req, const Response& resp, uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (req.type) {
    case MsgType::kInsert:
      live_[resp.id] = req.weight.mult;
      break;
    case MsgType::kSetWeight:
      live_[req.id] = req.weight.mult;
      break;
    case MsgType::kErase:
      live_.erase(req.id);
      erased_at_[req.id] = now;
      break;
    default:
      break;
  }
}

void Shadow::Sampled(const std::vector<ItemId>& ids, uint64_t sent_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ++queries_;
  ids_ += static_cast<double>(ids.size());
  for (ItemId id : ids) {
    if (live_.count(id) != 0) continue;
    auto e = erased_at_.find(id);
    if (e != erased_at_.end()) {
      // Erased and acked before this query was even sent: a stale id.
      if (e->second < sent_ns) ++bad_ids_;
      continue;
    }
    unresolved_.push_back(id);  // an insert whose ack is still in flight
  }
}

void Shadow::Check(Report* r, const Workload& w) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ItemId id : unresolved_) {
    if (live_.count(id) == 0 && erased_at_.count(id) == 0) ++bad_ids_;
  }
  unresolved_.clear();
  if (bad_ids_ != 0) {
    r->Fail(std::to_string(bad_ids_) + " sampled ids were not live");
  }
  std::vector<uint64_t> weights;
  weights.reserve(live_.size());
  for (const auto& [id, wt] : live_) weights.push_back(wt);
  CheckMeanSize(r, "sample", ids_, queries_,
                AnalyticMu(weights, w.alpha, w.beta));
}

std::vector<std::pair<ItemId, uint64_t>> Shadow::LiveItems() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ItemId, uint64_t>> items(live_.begin(), live_.end());
  std::sort(items.begin(), items.end());
  return items;
}

std::vector<ItemId> Shadow::ErasedIds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ItemId> ids;
  for (const auto& [id, t] : erased_at_) {
    if (live_.count(id) == 0) ids.push_back(id);
  }
  return ids;
}

bool Pipeline(Client& c, int window,
              const std::function<bool(Request*)>& make,
              const std::function<void(const Request&, const Response&,
                                       uint64_t sent_ns)>& done) {
  std::unordered_map<uint64_t, std::pair<Request, uint64_t>> inflight;
  bool more = true;
  for (;;) {
    while (more && inflight.size() < static_cast<size_t>(window)) {
      Request req;
      if (!make(&req)) {
        more = false;
        break;
      }
      const uint64_t seq = c.SendRequest(req);
      inflight.emplace(seq, std::make_pair(req, NowNs()));
    }
    if (inflight.empty()) return true;
    auto resp = c.ReadResponse();
    if (!resp.ok()) return false;
    auto it = inflight.find(resp->seq);
    if (it == inflight.end()) continue;
    done(it->second.first, *resp, it->second.second);
    inflight.erase(it);
  }
}

double StatsNumber(const std::string& doc,
                   std::initializer_list<const char*> path) {
  size_t pos = 0;
  for (const char* key : path) {
    pos = doc.find(std::string("\"") + key + "\"", pos);
    if (pos == std::string::npos) return -1;
    pos += std::strlen(key) + 2;
  }
  pos = doc.find(':', pos);
  if (pos == std::string::npos) return -1;
  return std::strtod(doc.c_str() + pos + 1, nullptr);
}

dpss::server::ServerOptions MakeServerOptions(const Workload& w,
                                              const std::string& dir) {
  dpss::server::ServerOptions o;
  o.io_threads = 1;  // with query_threads = 0 this resolves to 1 as well
  if (w.durable) {
    o.durable_dir = dir;
    o.wal_sync_every = 1;
    o.checkpoint_wal_bytes = w.checkpoint_wal_bytes;
  }
  return o;
}

bool LoadItems(int port, uint64_t n, Gen& gen, Shadow* shadow,
               std::vector<ItemId>* pool) {
  auto c = Client::Connect("127.0.0.1", port);
  if (!c.ok()) return false;
  uint64_t issued = 0;
  bool all_ok = true;
  const bool ok = Pipeline(
      **c, 2048,
      [&](Request* req) {
        if (issued == n) return false;
        ++issued;
        req->type = MsgType::kInsert;
        req->weight = Weight::FromU64(gen.Weight());
        return true;
      },
      [&](const Request& req, const Response& resp, uint64_t) {
        if (resp.status != WireStatus::kOk) {
          all_ok = false;
          return;
        }
        shadow->Acked(req, resp, NowNs());
        pool->push_back(resp.id);
      });
  return ok && all_ok;
}

bool FirstSample(int port, const Workload& w) {
  auto c = Client::Connect("127.0.0.1", port);
  return c.ok() && (*c)->Sample(w.alpha, w.beta).ok();
}

std::string FetchStats(int port) {
  auto c = Client::Connect("127.0.0.1", port);
  if (!c.ok()) return "";
  auto doc = (*c)->Stats();
  return doc.ok() ? *doc : "";
}

namespace {

// Each phase is cut into this many equal time windows, combined by their
// best decile (see ReportLatency and BestDecile).
constexpr int kWindows = 8;

// Share of the measured time given to the open-loop latency phase; the
// closed-loop throughput phase gets the rest.
constexpr double kOpenShare = 0.6;

size_t WindowOf(uint64_t t, uint64_t start, uint64_t span) {
  if (t <= start) return 0;
  return std::min<size_t>(kWindows - 1, (t - start) * kWindows / span);
}

struct PhaseResult {
  LatencyWindows read_us = LatencyWindows(kWindows);   // by due time
  LatencyWindows write_us = LatencyWindows(kWindows);
  std::vector<double> done = std::vector<double>(kWindows);  // kOk replies
  std::vector<float> lateness_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok = 0;
  double seconds = 0;
  bool transport_ok = true;
};

// Open loop at `rate` requests/s for `seconds`, one connection. Each
// request is timed from its due time, so a stall also delays the requests
// queued behind it.
PhaseResult OpenLoop(int port, const Workload& w, double rate,
                     double seconds, Gen& gen, std::vector<ItemId>* pool,
                     Shadow* shadow) {
  PhaseResult res;
  const size_t total = std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * seconds)));
  const int fd = ConnectRaw(port);
  if (fd < 0) {
    res.transport_ok = false;
    return res;
  }
  // What the receiver needs of each request, kept compact: a run at tens of
  // thousands of requests per second holds a million of these.
  struct Sent {
    MsgType type;
    ItemId id;
    uint64_t weight;
    uint64_t due_ns;
    uint64_t sent_ns;
  };
  std::vector<Sent> reqs(total);
  std::atomic<size_t> published{0};
  std::atomic<size_t> issued{total};
  bool receive_ok = true;  // written by the receiver only
  // Acked inserts, handed from the receiver back to the sender's pool.
  std::mutex fresh_mu;
  std::vector<ItemId> fresh;
  const double period = 1e9 / rate;
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t span = static_cast<uint64_t>(static_cast<double>(total) * period);

  std::thread receiver([&] {
    PinThisThread(Cpu::kClientB);
    std::string buf;
    size_t pos = 0, received = 0;
    char chunk[65536];
    while (received < issued.load(std::memory_order_acquire)) {
      const ssize_t got = read(fd, chunk, sizeof(chunk));
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        receive_ok = false;
        break;
      }
      buf.append(chunk, static_cast<size_t>(got));
      std::string_view payload;
      while (dpss::server::ExtractFrame(buf, &pos, &payload) ==
             dpss::server::FrameResult::kFrame) {
        Response resp;
        const uint64_t now = NowNs();
        if (!dpss::server::DecodeResponse(payload, &resp) || resp.seq == 0 ||
            resp.seq > total) {
          receive_ok = false;
          break;
        }
        const size_t i = resp.seq - 1;
        while (published.load(std::memory_order_acquire) <= i) {
        }
        ++received;
        if (resp.status != WireStatus::kOk) {
          ++res.failed;
          continue;
        }
        ++res.ok;
        const Sent& s = reqs[i];
        const float us = static_cast<float>(now - s.due_ns) * 1e-3f;
        const size_t win = WindowOf(s.due_ns, start, span);
        if (s.type == MsgType::kSample) {
          res.read_us[win].push_back(us);
          shadow->Sampled(resp.ids, s.sent_ns);
        } else {
          res.write_us[win].push_back(us);
          Request req;
          req.type = s.type;
          req.id = s.id;
          req.weight = Weight::FromU64(s.weight);
          shadow->Acked(req, resp, now);
          if (s.type == MsgType::kInsert) {
            std::lock_guard<std::mutex> lock(fresh_mu);
            fresh.push_back(resp.id);
          }
        }
      }
      if (!receive_ok) break;
      buf.erase(0, pos);
      pos = 0;
    }
  });

  PinThisThread(Cpu::kClientA);
  std::string frame;
  size_t i = 0;
  for (; i < total; ++i) {
    if (i % 256 == 0) {
      std::lock_guard<std::mutex> lock(fresh_mu);
      pool->insert(pool->end(), fresh.begin(), fresh.end());
      fresh.clear();
    }
    Request req = MakeRequest(gen, w, pool);
    req.seq = i + 1;
    frame.clear();
    dpss::server::EncodeRequest(req, &frame);
    Sent& s = reqs[i];
    s = {req.type, req.id, req.weight.mult, start + static_cast<uint64_t>(static_cast<double>(i) * period), 0};
    WaitUntil(s.due_ns);
    s.sent_ns = NowNs();
    res.lateness_us.push_back(static_cast<float>(s.sent_ns - s.due_ns) * 1e-3f);
    published.store(i + 1, std::memory_order_release);
    if (!WriteAll(fd, frame)) break;
  }
  if (i < total) {
    res.transport_ok = false;
    issued.store(i, std::memory_order_release);
    shutdown(fd, SHUT_RDWR);
  }
  receiver.join();
  close(fd);
  res.transport_ok = res.transport_ok && receive_ok;
  res.seconds = SecondsSince(start);
  res.attempted = total;
  res.failed += total - std::min<uint64_t>(total, res.ok + res.failed);
  pool->insert(pool->end(), fresh.begin(), fresh.end());
  return res;
}

// Closed loop: two connections, each keeping `w.window` requests in flight,
// each mutating only the ids in its own half of the pool.
PhaseResult ClosedLoop(int port, const Workload& w, double seconds,
                       uint64_t seed, std::vector<ItemId>* pool,
                       Shadow* shadow) {
  PhaseResult res;
  std::vector<ItemId> halves[2];
  for (size_t i = 0; i < pool->size(); ++i) halves[i % 2].push_back((*pool)[i]);
  PhaseResult parts[2];
  const uint64_t start = NowNs();
  const uint64_t span = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t deadline = start + span;
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      PinThisThread(t == 0 ? Cpu::kClientA : Cpu::kClientB);
      PhaseResult& p = parts[t];
      auto c = Client::Connect("127.0.0.1", port);
      if (!c.ok()) {
        p.transport_ok = false;
        return;
      }
      Gen gen(seed + static_cast<uint64_t>(t));
      p.transport_ok = Pipeline(
          **c, w.window,
          [&](Request* req) {
            if (NowNs() >= deadline) return false;
            *req = MakeRequest(gen, w, &halves[t]);
            ++p.attempted;
            return true;
          },
          [&](const Request& req, const Response& resp, uint64_t sent_ns) {
            const uint64_t now = NowNs();
            if (resp.status != WireStatus::kOk) {
              ++p.failed;
              return;
            }
            ++p.ok;
            const size_t win = WindowOf(now, start, span);
            if (now < deadline) ++p.done[win];
            const float us = static_cast<float>(now - sent_ns) * 1e-3f;
            if (req.type == MsgType::kSample) {
              p.read_us[win].push_back(us);
              shadow->Sampled(resp.ids, sent_ns);
            } else {
              p.write_us[win].push_back(us);
              shadow->Acked(req, resp, now);
              if (req.type == MsgType::kInsert) halves[t].push_back(resp.id);
            }
          });
    });
  }
  for (std::thread& th : threads) th.join();
  res.seconds = SecondsSince(start);
  pool->clear();
  for (int t = 0; t < 2; ++t) {
    res.attempted += parts[t].attempted;
    res.failed += parts[t].failed;
    res.ok += parts[t].ok;
    res.transport_ok = res.transport_ok && parts[t].transport_ok;
    for (int k = 0; k < kWindows; ++k) {
      res.done[k] += parts[t].done[k];
      res.read_us[k].insert(res.read_us[k].end(), parts[t].read_us[k].begin(),
                            parts[t].read_us[k].end());
      res.write_us[k].insert(res.write_us[k].end(),
                             parts[t].write_us[k].begin(),
                             parts[t].write_us[k].end());
    }
    pool->insert(pool->end(), halves[t].begin(), halves[t].end());
  }
  return res;
}

void StopServer(std::unique_ptr<dpss::server::Server>* s) {
  if (*s == nullptr) return;
  (*s)->RequestDrain();
  (*s)->WaitUntilStopped();
  s->reset();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// The highest N among the directory's snapshot-N files.
uint64_t NewestEpoch(const std::string& dir) {
  uint64_t newest = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) {
      newest = std::max<uint64_t>(newest, std::strtoull(name.c_str() + 9, nullptr, 10));
    }
  }
  return newest;
}

// Reads every acked item back from a restarted server: each live id must
// carry its last acked weight and each erased id must be gone.
void VerifyAcked(int port, Shadow* shadow, Report* r) {
  auto c = Client::Connect("127.0.0.1", port);
  if (!c.ok()) {
    r->Fail("cannot connect to the restarted server");
    return;
  }
  const auto live = shadow->LiveItems();
  const auto erased = shadow->ErasedIds();
  std::unordered_map<ItemId, uint64_t> expect(live.begin(), live.end());
  uint64_t mismatched = 0, resurrected = 0;
  size_t next = 0;
  const size_t total = live.size() + erased.size();
  const bool ok = Pipeline(
      **c, 256,
      [&](Request* req) {
        if (next == total) return false;
        req->type = MsgType::kGetWeight;
        req->id = next < live.size() ? live[next].first
                                     : erased[next - live.size()];
        ++next;
        return true;
      },
      [&](const Request& req, const Response& resp, uint64_t) {
        auto it = expect.find(req.id);
        if (it == expect.end()) {
          if (resp.status == WireStatus::kOk) ++resurrected;
        } else if (resp.status != WireStatus::kOk ||
                   resp.weight.mult != it->second || resp.weight.exp != 0) {
          ++mismatched;
        }
      });
  if (!ok) r->Fail("verification read failed");
  if (mismatched != 0) {
    r->Fail(std::to_string(mismatched) +
            " acked writes lost or changed after restart");
  }
  if (resurrected != 0) {
    r->Fail(std::to_string(resurrected) + " erased ids back after restart");
  }
  r->Detail("verified_acked_items", static_cast<double>(live.size()));
  r->Detail("verified_erased_items", static_cast<double>(erased.size()));
}

}  // namespace

void RunServed(const Workload& w, const Args& a, Report* r) {
  const uint64_t n = ScaledItems(w, a);
  const std::string base_dir = a.workdir + "/" + w.name;
  std::error_code ec;
  std::filesystem::remove_all(base_dir, ec);
  std::filesystem::create_directories(base_dir, ec);
  dpss::server::ServerOptions opts = MakeServerOptions(w, "");
  r->Detail("backend", opts.backend);

  // Set-up, repeated: generate the items, start the server, load it over
  // the wire and get one query answered.
  std::unique_ptr<dpss::server::Server> server;
  std::unique_ptr<Shadow> shadow;
  std::vector<ItemId> pool;
  std::vector<double> setups;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    StopServer(&server);
    shadow = std::make_unique<Shadow>();
    pool.clear();
    const uint64_t t0 = NowNs();
    Gen gen(a.seed);
    opts.durable_dir = w.durable ? base_dir + "/rep" + std::to_string(rep) : "";
    auto started = dpss::server::Server::Start(opts);
    if (!started.ok()) {
      r->Fail(std::string("Server::Start: ") + started.status().message());
      return;
    }
    server = std::move(*started);
    if (!LoadItems(server->port(), n, gen, shadow.get(), &pool) ||
        !FirstSample(server->port(), w)) {
      r->Fail("loading the server failed");
      StopServer(&server);
      return;
    }
    setups.push_back(SecondsSince(t0));
    if (rep + 1 < w.setup_reps && w.durable) {
      StopServer(&server);
      std::filesystem::remove_all(opts.durable_dir, ec);
    }
  }
  const int port = server->port();
  // Write back what the set-ups left dirty (snapshots, WALs, removed
  // directories), so the measured fsyncs do not queue behind it.
  if (w.durable) sync();

  const double rate = w.open_rate;
  Gen gen(a.seed ^ 0xbb67ae8584caa73bull);
  const PhaseResult open =
      OpenLoop(port, w, rate, a.seconds * kOpenShare, gen, &pool, shadow.get());
  const PhaseResult closed =
      ClosedLoop(port, w, a.seconds * (1 - kOpenShare), a.seed * 2 + 1, &pool,
                 shadow.get());
  if (!open.transport_ok || !closed.transport_ok) {
    r->Fail("a client connection failed");
  }

  const std::string stats = FetchStats(port);
  const double served_size = StatsNumber(stats, {"sampler", "size"});
  double memory = StatsNumber(stats, {"sampler", "memory_bytes"});
  const auto live_items = shadow->LiveItems();
  if (memory < 0) r->Fail("STATS lacks sampler.memory_bytes");
  if (served_size != static_cast<double>(live_items.size())) {
    r->Fail("STATS size " + std::to_string(served_size) + " != shadow " +
            std::to_string(live_items.size()));
  }
  shadow->Check(r, w);

  double restart_s = 0;
  double disk_bytes = 0;
  if (w.durable) {
    // Drain (final fsync + checkpoint), then restart on the same directory
    // and read every acked write back.
    StopServer(&server);
    disk_bytes = static_cast<double>(DirBytes(opts.durable_dir));
    // Epoch 1 was the fresh open and the drain wrote one more checkpoint.
    r->Detail("durable.auto_checkpoints",
              static_cast<double>(NewestEpoch(opts.durable_dir)) - 2);
    std::vector<double> reopen;
    const int reps = 9;
    for (int rep = 0; rep < reps && r->correct(); ++rep) {
      const uint64_t t0 = NowNs();
      auto started = dpss::server::Server::Start(opts);
      if (!started.ok()) {
        r->Fail(std::string("restart: ") + started.status().message());
        break;
      }
      server = std::move(*started);
      bool answered = false;
      auto c = Client::Connect("127.0.0.1", server->port());
      if (c.ok()) answered = (*c)->Ping().ok();
      reopen.push_back(SecondsSince(t0));
      if (!answered) r->Fail("restarted server did not answer");
      if (rep + 1 < reps) StopServer(&server);
    }
    restart_s = Median(reopen);
    if (server != nullptr) {
      VerifyAcked(server->port(), shadow.get(), r);
      // Memory of the recovered structure: rebuilt from the snapshot, its
      // layout does not depend on how the two clients' writes interleaved.
      memory = StatsNumber(FetchStats(server->port()), {"sampler", "memory_bytes"});
      StopServer(&server);
    }
  } else {
    // Bytes a full snapshot of the final state takes (persist::SaveSampler
    // of the served backend), the in-memory counterpart of the durable
    // directory size.
    StopServer(&server);
    auto copy = dpss::MakeSamplerChecked(opts.backend, opts.spec);
    std::vector<uint64_t> weights;
    for (const auto& [id, wt] : live_items) weights.push_back(wt);
    std::string snapshot;
    if (!copy.ok() || !(*copy)->InsertBatch(weights, nullptr).ok() ||
        !dpss::persist::SaveSampler(**copy, opts.spec, &snapshot).ok()) {
      r->Fail("snapshot of the final state failed");
    }
    disk_bytes = static_cast<double>(snapshot.size());
  }
  std::filesystem::remove_all(base_dir, ec);

  const double live = std::max<double>(1, static_cast<double>(live_items.size()));
  r->Attempt(open.attempted + closed.attempted, open.failed + closed.failed);
  r->Metric("setup_s", BestDecile(setups, true), "s");
  std::vector<double> rates;
  for (double d : closed.done) {
    rates.push_back(d * kWindows / (a.seconds * (1 - kOpenShare)));
  }
  r->Metric("throughput_ops_s", BestDecile(rates, false), "1/s");
  ReportLatency(r, "read", open.read_us);
  ReportLatency(r, "write", open.write_us);
  // Only the durable workload has something to recover.
  if (w.durable) r->Metric("restart_s", restart_s, "s");
  r->Metric("mem_bytes_per_item", memory / live, "bytes");
  r->Metric("disk_bytes_per_item", disk_bytes / live, "bytes");

  const LatencySummary late = Summarize(open.lateness_us);
  r->Detail("open_loop.rate_per_s", rate);
  r->Detail("open_loop.achieved_per_s",
            static_cast<double>(open.attempted) / open.seconds);
  r->Detail("open_loop.lateness_p50_us", late.p50);
  r->Detail("open_loop.lateness_p99_us", late.p99);
  r->Detail("closed_loop.connections", 2);
  r->Detail("closed_loop.window", w.window);
  auto pooled_p50 = [](const LatencyWindows& windows) {
    std::vector<float> all;
    for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
    return Summarize(std::move(all)).p50;
  };
  r->Detail("closed_loop.read_p50_us", pooled_p50(closed.read_us));
  r->Detail("closed_loop.write_p50_us", pooled_p50(closed.write_us));
}

}  // namespace perfbench
