// dpss-serverd core: thread-per-core poll loops + a single batch thread
// that owns the sampler. See server/server.h for the architecture overview
// and docs/SERVING.md for the protocol and policy specification.
//
// Threading invariants, in one place:
//   - A connection (fd, inbuf, writebuf) is owned by exactly one I/O
//     thread; no other thread touches it.
//   - A connection's Outbox is the only cross-thread channel: the batch
//     thread appends encoded reply frames under its mutex, the I/O thread
//     moves them into the connection's write buffer under the same mutex.
//   - The sampler is touched only by the batch thread (and, for query
//     bursts on a backend advertising `concurrent_queries`, by the query
//     pool it drives synchronously via ParallelFor).
//   - Admission accounting (queue depth, in-flight bytes, per-connection
//     outstanding) is relaxed atomics: checked on the I/O threads,
//     released by the batch thread when it enqueues the reply.

#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/sharded_sampler.h"
#include "concurrent/thread_pool.h"
#include "persist/env.h"
#include "persist/recovery.h"
#include "replica/follower.h"
#include "replica/replica_sampler.h"
#include "replica/replication_log.h"
#include "server/protocol.h"

namespace dpss {
namespace server {

namespace {

// Why ServerOptions::backend cannot be served (Status messages are static
// strings, hence one per built-in).
const char* UnservableReason(const std::string& backend) {
  if (backend == "rebuild") {
    return "rebuild: fixed (alpha, beta); serve halt, naive or "
           "sharded[K]:<inner>";
  }
  if (backend == "bucket_jump") {
    return "bucket_jump: fixed (alpha, beta); serve halt, naive or "
           "sharded[K]:<inner>";
  }
  if (backend == "odss") {
    return "odss: fixed (alpha, beta); serve halt, naive or "
           "sharded[K]:<inner>";
  }
  return "ServerOptions::backend is not parameterized (a kSample carries "
         "its own alpha, beta)";
}

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

OpKind OpKindFor(MsgType type) {
  switch (type) {
    case MsgType::kInsert:
    case MsgType::kInsertW:
      return OpKind::kInsert;
    case MsgType::kErase:
      return OpKind::kErase;
    case MsgType::kSetWeight:
      return OpKind::kSetWeight;
    case MsgType::kGetWeight:
      return OpKind::kGetWeight;
    case MsgType::kSample:
      return OpKind::kSample;
    case MsgType::kStats:
      return OpKind::kStats;
    default:
      return OpKind::kPing;
  }
}

bool IsMutation(MsgType type) {
  return type == MsgType::kInsert || type == MsgType::kInsertW ||
         type == MsgType::kErase || type == MsgType::kSetWeight;
}

// The per-connection reply channel shared between the owning I/O thread
// and the batch thread. Outlives the connection (the batch thread may hold
// references to it after a disconnect); `closed` makes late replies no-ops.
struct Outbox {
  std::mutex mu;
  std::string pending;                 // encoded frames awaiting the I/O thread
  bool closed = false;
  int wake_fd = -1;                    // owning I/O thread's eventfd
  std::atomic<uint64_t> inflight{0};   // admitted, unreplied requests
};

// One admitted request travelling from an I/O thread to the batch thread.
struct Work {
  Request req;
  std::shared_ptr<Outbox> outbox;
  uint64_t arrival_ns = 0;
  uint32_t bytes = 0;  // frame bytes, for the in-flight accounting
};

}  // namespace

class Server::Impl {
 public:
  explicit Impl(const ServerOptions& opts)
      : opts_(opts),
        num_io_(ResolveIoThreads(opts)),
        metrics_(num_io_ + 1),
        start_ns_(NowNs()) {}

  ~Impl() {
    if (follower_ != nullptr) follower_->Stop();
    RequestDrain();
    WaitUntilStopped();
    {
      std::lock_guard<std::mutex> lock(promote_mu_);
      if (promote_thread_.joinable()) promote_thread_.join();
    }
    for (int fd : wake_fds_) {
      if (fd >= 0) close(fd);
    }
    if (drain_efd_ >= 0) close(drain_efd_);
    if (promote_efd_ >= 0) close(promote_efd_);
    // Listener fds are closed by their I/O threads (or never opened on a
    // failed Start).
    for (int fd : listen_fds_) {
      if (fd >= 0) close(fd);
    }
  }

  static int ResolveIoThreads(const ServerOptions& opts) {
    int n = opts.io_threads;
    if (n <= 0) {
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      n = hw > 0 ? hw : 1;
      if (n > 16) n = 16;
    }
    if (n > 64) n = 64;
    return n;
  }

  Status Start() {
    if (opts_.max_batch_ops == 0) {
      return InvalidArgumentError("ServerOptions::max_batch_ops must be >= 1");
    }
    if (opts_.max_queue_depth == 0 || opts_.max_inflight_bytes == 0 ||
        opts_.max_conn_pending == 0) {
      return InvalidArgumentError(
          "ServerOptions admission limits must be >= 1");
    }
    // Zero timeouts are either meaningful or rejected, never accidental:
    // drain_flush_grace_ms == 0 legitimately means "close slow sockets
    // immediately on drain", but a zero ack timeout with replica acks
    // required would time out *every* mutation on arrival — reject it up
    // front like the admission limits.
    if (opts_.min_replica_acks > 0 && opts_.replica_ack_timeout_ms == 0) {
      return InvalidArgumentError(
          "ServerOptions::replica_ack_timeout_ms must be >= 1 when "
          "min_replica_acks > 0");
    }
    if (!opts_.replica_of.empty()) {
      if (opts_.durable_dir.empty()) {
        return InvalidArgumentError(
            "replica mode needs durable_dir as the local mirror directory");
      }
      if (opts_.min_replica_acks != 0) {
        return InvalidArgumentError(
            "min_replica_acks is a primary-side option");
      }
    }
    Status st = CheckServable();
    if (!st.ok()) return st;
    st = BuildSampler();
    if (!st.ok()) return st;
    st = BindListeners();
    if (!st.ok()) return st;
    drain_efd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (drain_efd_ < 0) return IoError("eventfd failed");
    promote_efd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (promote_efd_ < 0) return IoError("eventfd failed");
    for (int i = 0; i < num_io_; ++i) {
      const int efd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (efd < 0) return IoError("eventfd failed");
      wake_fds_.push_back(efd);
    }
    ResetQueryPool();
    RefreshStatsCacheLocked();
    for (int i = 0; i < num_io_; ++i) {
      io_threads_.emplace_back([this, i] { IoLoop(i); });
    }
    batch_thread_ = std::thread([this] { BatchLoop(); });
    if (follower_ != nullptr) {
      st = follower_->Start();
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  int port() const { return bound_port_; }

  void RequestDrain() {
    int expected = 0;
    if (phase_.compare_exchange_strong(expected, 1)) {
      qcv_.notify_all();
      WakeAllIo();
    }
  }

  void NotifyDrainFromSignal() {
    // write(2) is async-signal-safe; I/O thread 0 polls drain_efd_ and
    // turns it into an ordinary RequestDrain call.
    const uint64_t one = 1;
    if (drain_efd_ >= 0) {
      [[maybe_unused]] ssize_t n = write(drain_efd_, &one, sizeof(one));
    }
  }

  void WaitUntilStopped() {
    std::lock_guard<std::mutex> lock(join_mu_);
    for (std::thread& t : io_threads_) {
      if (t.joinable()) t.join();
    }
    if (batch_thread_.joinable()) batch_thread_.join();
    stopped_.store(true, std::memory_order_release);
  }

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  std::string StatsJson() const {
    StatsContext ctx;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ctx = cached_ctx_;
    }
    FillLiveContext(&ctx);
    return metrics_.ToJson(ctx);
  }

  uint64_t shed_count() const {
    uint64_t total = 0;
    for (int i = 0; i < metrics_.num_cores(); ++i) {
      total += const_cast<MetricsRegistry&>(metrics_)
                   .core(i)
                   .shed.load(std::memory_order_relaxed);
    }
    return total;
  }

  // --- Replication public surface -----------------------------------------

  bool is_replica() const {
    return is_replica_.load(std::memory_order_acquire);
  }

  uint64_t replica_epoch() const {
    return replica_ != nullptr ? replica_->epoch() : 0;
  }

  uint64_t replica_applied_seq() const {
    return replica_ != nullptr ? replica_->applied_seq() : 0;
  }

  Status replication_status() const {
    if (follower_ == nullptr) return Status::Ok();
    return follower_->fatal_status();
  }

  Status DumpItems(std::vector<ItemRecord>* out) {
    if (out == nullptr) return InvalidArgumentError("null output vector");
    Status result;
    Status rc = RunOnBatchThread([&] { result = sampler_->DumpItems(out); });
    return rc.ok() ? result : rc;
  }

  Status Promote(uint64_t min_epoch, uint64_t min_seq) {
    std::lock_guard<std::mutex> plock(promote_mu_);
    if (!is_replica_.load(std::memory_order_acquire)) {
      return InvalidArgumentError("not a replica (or already promoted)");
    }
    // Quiesce the feed first: after Stop() joins, no thread applies to the
    // replica, so its (epoch, applied_seq) is final for the staleness
    // check inside ReplicaSampler::Promote.
    follower_->Stop();
    Status result;
    Status rc = RunOnBatchThread([&] {
      StatusOr<std::unique_ptr<persist::DurableSampler>> promoted =
          replica_->Promote(DurableOpts(), min_epoch, min_seq);
      if (!promoted.ok()) {
        result = promoted.status();
        return;
      }
      durable_ = promoted->get();
      // The spent ReplicaSampler stays alive (not merely unreferenced):
      // replica_epoch()/replica_applied_seq() may be dereferencing it from
      // other threads, and it keeps answering with its final position.
      retired_replica_ = std::move(sampler_);
      sampler_ = std::move(*promoted);
      // The promoted backend is the one the primary's snapshot named, not
      // necessarily opts_.backend, so the pool is decided again.
      ResetQueryPool();
      repl_log_ = std::make_unique<replica::ReplicationLog>(durable_);
      is_replica_.store(false, std::memory_order_release);
      RefreshStatsCacheLocked();
    });
    return rc.ok() ? result : rc;
  }

  void NotifyPromoteFromSignal() {
    const uint64_t one = 1;
    if (promote_efd_ >= 0) {
      [[maybe_unused]] ssize_t n = write(promote_efd_, &one, sizeof(one));
    }
  }

  // I/O thread 0's handler for the promote eventfd: the promotion blocks
  // (it joins the follower and round-trips the batch thread), so it runs
  // on a one-shot thread instead of stalling the event loop.
  void StartSignalPromote() {
    std::lock_guard<std::mutex> lock(promote_mu_);
    if (promote_thread_.joinable() ||
        !is_replica_.load(std::memory_order_acquire)) {
      return;
    }
    promote_thread_ = std::thread([this] { (void)Promote(0, 0); });
  }

 private:
  // --- Startup ------------------------------------------------------------

  persist::DurableOptions DurableOpts() const {
    persist::DurableOptions dopts;
    dopts.backend = opts_.backend;
    dopts.spec = opts_.spec;
    dopts.wal_sync_every = opts_.wal_sync_every;
    dopts.checkpoint_wal_bytes = opts_.checkpoint_wal_bytes;
    dopts.env = opts_.env;
    return dopts;
  }

  // A kSample carries its own (alpha, beta), so a server serves only a
  // parameterized backend. Probed on a throwaway instance before
  // BuildSampler opens or creates any directory.
  Status CheckServable() const {
    auto probe = MakeSamplerChecked(opts_.backend, opts_.spec);
    if (!probe.ok()) return probe.status();
    if ((*probe)->capabilities().parameterized) return Status::Ok();
    return InvalidArgumentError(UnservableReason(opts_.backend));
  }

  Status BuildSampler() {
    if (!opts_.replica_of.empty()) {
      // Read replica: a ReplicaSampler mirroring into durable_dir, fed by
      // a Follower dialing the primary. The DurableSampler machinery only
      // enters the picture at Promote().
      const size_t colon = opts_.replica_of.rfind(':');
      int primary_port = 0;
      if (colon != std::string::npos) {
        primary_port = atoi(opts_.replica_of.c_str() + colon + 1);
      }
      if (colon == std::string::npos || primary_port <= 0) {
        return InvalidArgumentError(
            "ServerOptions::replica_of must be \"host:port\"");
      }
      auto made = replica::ReplicaSampler::Create(
          opts_.env, opts_.durable_dir, opts_.backend, opts_.spec);
      if (!made.ok()) return made.status();
      replica_ = made->get();
      sampler_ = std::move(*made);
      replica::FollowerOptions fopts;
      fopts.primary_host = opts_.replica_of.substr(0, colon);
      fopts.primary_port = primary_port;
      follower_ = std::make_unique<replica::Follower>(replica_, fopts);
      is_replica_.store(true, std::memory_order_release);
      redirect_addr_ = opts_.advertise_addr.empty() ? opts_.replica_of
                                                    : opts_.advertise_addr;
      return Status::Ok();
    }
    if (!opts_.durable_dir.empty()) {
      auto opened =
          persist::RecoveryManager::Open(opts_.durable_dir, DurableOpts());
      if (!opened.ok()) return opened.status();
      durable_ = opened->get();
      sampler_ = std::move(*opened);
      repl_log_ = std::make_unique<replica::ReplicationLog>(durable_);
    } else {
      auto made = MakeSamplerChecked(opts_.backend, opts_.spec);
      if (!made.ok()) return made.status();
      sampler_ = std::move(*made);
    }
    if (opts_.min_replica_acks > 0 && durable_ == nullptr) {
      return InvalidArgumentError(
          "min_replica_acks needs durable mode (there is no WAL to "
          "replicate otherwise)");
    }
    return Status::Ok();
  }

  Status BindListeners() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
    if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("ServerOptions::host is not an IPv4 address");
    }
    for (int i = 0; i < num_io_; ++i) {
      const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd < 0) return IoError("socket failed");
      const int on = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &on, sizeof(on));
      if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          listen(fd, 511) != 0) {
        close(fd);
        return IoError("bind/listen failed (port in use?)");
      }
      if (i == 0 && opts_.port == 0) {
        // Learn the ephemeral port so the remaining listeners share it.
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
          close(fd);
          return IoError("getsockname failed");
        }
        addr.sin_port = bound.sin_port;
      }
      listen_fds_.push_back(fd);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    getsockname(listen_fds_[0], reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
    return Status::Ok();
  }

  // --- I/O threads --------------------------------------------------------

  struct Conn {
    int fd = -1;
    std::string inbuf;
    size_t inpos = 0;
    std::string writebuf;
    std::shared_ptr<Outbox> outbox;
  };

  void WakeAllIo() {
    const uint64_t one = 1;
    for (int fd : wake_fds_) {
      if (fd >= 0) {
        [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
      }
    }
  }

  void CloseConn(Conn* conn, CoreMetrics& m) {
    if (conn->fd < 0) return;
    {
      std::lock_guard<std::mutex> lock(conn->outbox->mu);
      conn->outbox->closed = true;
      conn->outbox->pending.clear();
    }
    close(conn->fd);
    conn->fd = -1;
    m.conns_closed.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Moves any batch-thread replies into the connection's write buffer and
  // writes as much as the socket accepts. Returns false when the
  // connection must close (write error or slow-consumer overflow).
  bool PumpOut(Conn* conn, CoreMetrics& m) {
    {
      std::lock_guard<std::mutex> lock(conn->outbox->mu);
      if (!conn->outbox->pending.empty()) {
        if (conn->writebuf.empty()) {
          conn->writebuf = std::move(conn->outbox->pending);
          conn->outbox->pending.clear();
        } else {
          conn->writebuf.append(conn->outbox->pending);
          conn->outbox->pending.clear();
        }
      }
    }
    size_t written = 0;
    while (written < conn->writebuf.size()) {
      const ssize_t n = write(conn->fd, conn->writebuf.data() + written,
                              conn->writebuf.size() - written);
      if (n > 0) {
        written += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone
    }
    if (written > 0) {
      m.bytes_out.fetch_add(written, std::memory_order_relaxed);
      conn->writebuf.erase(0, written);
    }
    return conn->writebuf.size() <= opts_.max_outbox_bytes;
  }

  // Appends one reply frame to the connection's own outbox (the I/O thread
  // path for inline replies: ping, shed, shutdown, protocol errors).
  void ReplyInline(Conn* conn, const Response& resp) {
    std::lock_guard<std::mutex> lock(conn->outbox->mu);
    if (!conn->outbox->closed) EncodeResponse(resp, &conn->outbox->pending);
  }

  // Parses every complete frame in the connection's input buffer. Returns
  // false when the connection must close (framing violation or EOF already
  // detected by the caller).
  bool ParseFrames(Conn* conn, CoreMetrics& m, std::vector<Work>* admitted) {
    const int phase = phase_.load(std::memory_order_acquire);
    for (;;) {
      std::string_view payload;
      const FrameResult r = ExtractFrame(conn->inbuf, &conn->inpos, &payload);
      if (r == FrameResult::kNeedMore) break;
      if (r == FrameResult::kBadFrame) {
        m.bad_frames.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      m.frames_in.fetch_add(1, std::memory_order_relaxed);
      const uint64_t now = NowNs();
      Request req;
      if (!DecodeRequest(payload, &req)) {
        m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Response resp;
        resp.seq = req.seq;
        resp.status = WireStatus::kProtocolError;
        resp.request_type = req.type;
        ReplyInline(conn, resp);
        continue;
      }
      if (req.type == MsgType::kPing) {
        Response resp;
        resp.seq = req.seq;
        resp.request_type = MsgType::kPing;
        ReplyInline(conn, resp);
        m.op_count[static_cast<int>(OpKind::kPing)].fetch_add(
            1, std::memory_order_relaxed);
        m.op_latency_ns[static_cast<int>(OpKind::kPing)].Record(NowNs() -
                                                                now);
        continue;
      }
      if (phase >= 1) {
        m.shutdown_rejects.fetch_add(1, std::memory_order_relaxed);
        Response resp;
        resp.seq = req.seq;
        resp.status = WireStatus::kShuttingDown;
        resp.request_type = req.type;
        ReplyInline(conn, resp);
        continue;
      }
      if (IsMutation(req.type) &&
          is_replica_.load(std::memory_order_acquire)) {
        // Read replicas redirect writers instead of queueing them; the
        // response body names the primary (server/protocol.h).
        const int k = static_cast<int>(OpKindFor(req.type));
        m.op_count[k].fetch_add(1, std::memory_order_relaxed);
        m.op_errors[k].fetch_add(1, std::memory_order_relaxed);
        Response resp;
        resp.seq = req.seq;
        resp.status = WireStatus::kNotPrimary;
        resp.request_type = req.type;
        resp.primary_addr = redirect_addr_;
        ReplyInline(conn, resp);
        continue;
      }
      // Admission control: all three bounds checked lock-free; a request
      // over any bound is shed without touching the queue or the sampler.
      const uint32_t bytes =
          static_cast<uint32_t>(payload.size() + kFrameHeaderLen);
      if (queue_depth_.load(std::memory_order_relaxed) >=
              opts_.max_queue_depth ||
          inflight_bytes_.load(std::memory_order_relaxed) >=
              opts_.max_inflight_bytes ||
          conn->outbox->inflight.load(std::memory_order_relaxed) >=
              opts_.max_conn_pending) {
        m.shed.fetch_add(1, std::memory_order_relaxed);
        Response resp;
        resp.seq = req.seq;
        resp.status = WireStatus::kShed;
        resp.request_type = req.type;
        ReplyInline(conn, resp);
        continue;
      }
      queue_depth_.fetch_add(1, std::memory_order_relaxed);
      inflight_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      conn->outbox->inflight.fetch_add(1, std::memory_order_relaxed);
      admitted->push_back(Work{req, conn->outbox, now, bytes});
    }
    // Compact the consumed prefix once it dominates the buffer.
    if (conn->inpos == conn->inbuf.size()) {
      conn->inbuf.clear();
      conn->inpos = 0;
    } else if (conn->inpos > (1u << 20)) {
      conn->inbuf.erase(0, conn->inpos);
      conn->inpos = 0;
    }
    return true;
  }

  // Reads until EAGAIN. Returns false on EOF or error.
  bool ReadSocket(Conn* conn, CoreMetrics& m) {
    char buf[65536];
    for (;;) {
      const ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        m.bytes_in.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
        if (static_cast<size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  void IoLoop(int idx) {
    CoreMetrics& m = metrics_.core(idx);
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<pollfd> pfds;
    int listen_fd = listen_fds_[idx];
    const int wake_fd = wake_fds_[idx];
    uint64_t flush_deadline_ns = 0;
    std::vector<Work> admitted;

    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase >= 1 && listen_fd >= 0) {
        close(listen_fd);
        listen_fds_[idx] = -1;
        listen_fd = -1;
      }
      if (phase >= 2) {
        // The batch thread has finished (all admitted work is replied and
        // durable): flush what the sockets will take, bounded by a grace
        // deadline, then exit.
        if (flush_deadline_ns == 0) {
          flush_deadline_ns =
              NowNs() + opts_.drain_flush_grace_ms * 1'000'000ull;
        }
        bool any_pending = false;
        for (auto& conn : conns) {
          if (conn->fd < 0) continue;
          if (!PumpOut(conn.get(), m)) CloseConn(conn.get(), m);
          bool outbox_pending;
          {
            std::lock_guard<std::mutex> lock(conn->outbox->mu);
            outbox_pending = !conn->outbox->pending.empty();
          }
          if (conn->fd >= 0 &&
              (!conn->writebuf.empty() || outbox_pending)) {
            any_pending = true;
          }
        }
        if (!any_pending || NowNs() > flush_deadline_ns) {
          for (auto& conn : conns) CloseConn(conn.get(), m);
          break;
        }
      }

      pfds.clear();
      pfds.push_back({wake_fd, POLLIN, 0});
      if (idx == 0) {
        pfds.push_back({drain_efd_, POLLIN, 0});
        pfds.push_back({promote_efd_, POLLIN, 0});
      }
      const size_t fixed = pfds.size();
      if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
      const size_t listen_at = listen_fd >= 0 ? pfds.size() - 1 : SIZE_MAX;
      const size_t conns_at = pfds.size();
      for (auto& conn : conns) {
        short events = POLLIN;
        bool outbox_pending;
        {
          std::lock_guard<std::mutex> lock(conn->outbox->mu);
          outbox_pending = !conn->outbox->pending.empty();
        }
        if (!conn->writebuf.empty() || outbox_pending) events |= POLLOUT;
        pfds.push_back({conn->fd, events, 0});
      }
      (void)fixed;

      const int timeout_ms = phase >= 2 ? 20 : 200;
      const int nready = ::poll(pfds.data(),
                                static_cast<nfds_t>(pfds.size()), timeout_ms);
      if (nready < 0 && errno != EINTR) break;

      // Wakeups (reply frames ready, or a phase change).
      if (pfds[0].revents & POLLIN) {
        uint64_t drain;
        while (read(wake_fd, &drain, sizeof(drain)) > 0) {
        }
      }
      if (idx == 0 && (pfds[1].revents & POLLIN)) {
        uint64_t drain;
        while (read(drain_efd_, &drain, sizeof(drain)) > 0) {
        }
        RequestDrain();
      }
      if (idx == 0 && (pfds[2].revents & POLLIN)) {
        uint64_t drain;
        while (read(promote_efd_, &drain, sizeof(drain)) > 0) {
        }
        StartSignalPromote();
      }

      // New connections.
      if (listen_at != SIZE_MAX && (pfds[listen_at].revents & POLLIN)) {
        for (;;) {
          const int fd = accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          const int on = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
          auto conn = std::make_unique<Conn>();
          conn->fd = fd;
          conn->outbox = std::make_shared<Outbox>();
          conn->outbox->wake_fd = wake_fd;
          conns.push_back(std::move(conn));
          m.conns_opened.fetch_add(1, std::memory_order_relaxed);
          open_conns_.fetch_add(1, std::memory_order_relaxed);
        }
      }

      // Connection I/O.
      admitted.clear();
      for (size_t c = 0; c < conns.size(); ++c) {
        Conn* conn = conns[c].get();
        if (conn->fd < 0) continue;
        const short rev =
            conns_at + c < pfds.size() ? pfds[conns_at + c].revents : 0;
        bool alive = true;
        if (rev & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
        if (alive && (rev & POLLIN)) {
          alive = ReadSocket(conn, m);
          // Parse even a final burst that arrived with EOF: the peer may
          // have pipelined requests and half-closed.
          if (!ParseFrames(conn, m, &admitted)) alive = false;
        }
        if (alive) alive = PumpOut(conn, m);
        if (!alive) {
          bool flushed;
          {
            std::lock_guard<std::mutex> lock(conn->outbox->mu);
            flushed = conn->outbox->pending.empty();
          }
          // Give the peer its final error frames when the socket is still
          // writable; otherwise just close.
          if (flushed && conn->writebuf.empty()) {
            CloseConn(conn, m);
          } else {
            PumpOut(conn, m);
            CloseConn(conn, m);
          }
        }
      }
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) {
                                   return c->fd < 0;
                                 }),
                  conns.end());

      if (!admitted.empty()) {
        {
          std::lock_guard<std::mutex> lock(qmu_);
          for (Work& w : admitted) queue_.push_back(std::move(w));
        }
        qcv_.notify_one();
        admitted.clear();
      }
    }
  }

  // --- Batch thread -------------------------------------------------------

  // Releases the admission accounting for `w` and appends the reply to its
  // outbox; records the op's latency and outcome. The wake fd is collected
  // for a deduplicated post-batch wakeup.
  void Reply(const Work& w, const Response& resp, CoreMetrics& m,
             std::vector<int>* wake) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    inflight_bytes_.fetch_sub(w.bytes, std::memory_order_relaxed);
    w.outbox->inflight.fetch_sub(1, std::memory_order_relaxed);
    const int k = static_cast<int>(OpKindFor(w.req.type));
    m.op_count[k].fetch_add(1, std::memory_order_relaxed);
    if (resp.status != WireStatus::kOk) {
      m.op_errors[k].fetch_add(1, std::memory_order_relaxed);
    }
    m.op_latency_ns[k].Record(NowNs() - w.arrival_ns);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(w.outbox->mu);
      if (!w.outbox->closed) {
        EncodeResponse(resp, &w.outbox->pending);
        enqueued = true;
      }
    }
    if (enqueued &&
        std::find(wake->begin(), wake->end(), w.outbox->wake_fd) ==
            wake->end()) {
      wake->push_back(w.outbox->wake_fd);
    }
  }

  void ApplyMutations(std::vector<Work>& batch,
                      const std::vector<size_t>& origin, CoreMetrics& m,
                      std::vector<int>* wake) {
    std::vector<Op> ops;
    ops.reserve(origin.size());
    for (size_t i : origin) {
      const Request& r = batch[i].req;
      switch (r.type) {
        case MsgType::kInsert:
        case MsgType::kInsertW:
          ops.push_back(Op::Insert(r.weight));
          break;
        case MsgType::kErase:
          ops.push_back(Op::Erase(r.id));
          break;
        default:
          ops.push_back(Op::SetWeight(r.id, r.weight));
          break;
      }
    }
    size_t start = 0;
    std::vector<ItemId> inserted;
    while (start < ops.size()) {
      inserted.clear();
      size_t applied = 0;
      const Status st = sampler_->ApplyBatch(
          std::span<const Op>(ops).subspan(start), &inserted, &applied);
      m.batches.fetch_add(1, std::memory_order_relaxed);
      m.batched_ops.fetch_add(applied, std::memory_order_relaxed);
      m.batch_occupancy.Record(applied);
      // Replicated-durability mode: successful mutations of this record
      // wait parked until min_replica_acks replicas cover its (epoch, seq)
      // — the ack is withheld, never faked (ReleaseParked fails them with
      // kIoError on timeout).
      const bool park = opts_.min_replica_acks > 0 && durable_ != nullptr &&
                        applied > 0;
      const uint64_t record_epoch = park ? durable_->epoch() : 0;
      const uint64_t record_seq = park ? durable_->wal_next_seq() - 1 : 0;
      size_t ins = 0;
      for (size_t k = start; k < start + applied; ++k) {
        Work& w = batch[origin[k]];
        Response resp;
        resp.seq = w.req.seq;
        resp.request_type = w.req.type;
        if (ops[k].kind == Op::Kind::kInsert) resp.id = inserted[ins++];
        if (park) {
          parked_.push_back(Parked{
              record_epoch, record_seq,
              w.arrival_ns + opts_.replica_ack_timeout_ms * 1'000'000ull,
              std::move(w), resp});
        } else {
          Reply(w, resp, m, wake);
        }
      }
      if (st.ok()) {
        start += applied;
        if (applied == 0) break;  // defensive: cannot make progress
        continue;
      }
      // The op at start+applied failed; answer it and resume past it so
      // one bad request (a stale id, say) cannot fail its whole batch.
      const Work& w = batch[origin[start + applied]];
      Response resp;
      resp.seq = w.req.seq;
      resp.request_type = w.req.type;
      resp.status = WireStatusFromStatus(st);
      Reply(w, resp, m, wake);
      start += applied + 1;
    }
  }

  void DrainQueries(std::vector<Work>& batch,
                    const std::vector<size_t>& origin, CoreMetrics& m,
                    std::vector<int>* wake) {
    // Partition the read run: kSample bursts can fan out over the pool on
    // a thread-safe backend, everything else is answered serially.
    std::vector<size_t> samples;
    for (size_t i : origin) {
      if (batch[i].req.type == MsgType::kSample) samples.push_back(i);
    }
    struct QueryResult {
      Status st;
      std::vector<ItemId> ids;
    };
    std::vector<QueryResult> results(samples.size());
    if (!samples.empty()) {
      m.query_bursts.fetch_add(1, std::memory_order_relaxed);
      m.burst_queries.fetch_add(samples.size(), std::memory_order_relaxed);
      auto run_one = [&](int qi) {
        const Request& r = batch[samples[static_cast<size_t>(qi)]].req;
        QueryResult& out = results[static_cast<size_t>(qi)];
        out.st = sampler_->SampleInto(r.alpha, r.beta, &out.ids);
      };
      if (query_pool_ != nullptr && samples.size() > 1) {
        m.pooled_bursts.fetch_add(1, std::memory_order_relaxed);
        query_pool_->ParallelFor(static_cast<int>(samples.size()), run_one);
      } else {
        for (int qi = 0; qi < static_cast<int>(samples.size()); ++qi) {
          run_one(qi);
        }
      }
    }
    size_t sample_i = 0;
    for (size_t i : origin) {
      Work& w = batch[i];
      Response resp;
      resp.seq = w.req.seq;
      resp.request_type = w.req.type;
      switch (w.req.type) {
        case MsgType::kSample: {
          QueryResult& qr = results[sample_i++];
          resp.status = WireStatusFromStatus(qr.st);
          if (qr.st.ok()) {
            uint32_t cap = opts_.max_sample_ids;
            if (w.req.max_ids != 0 && w.req.max_ids < cap) {
              cap = w.req.max_ids;
            }
            if (qr.ids.size() > cap) qr.ids.resize(cap);
            resp.ids = std::move(qr.ids);
          }
          break;
        }
        case MsgType::kGetWeight: {
          const auto weight = sampler_->GetWeight(w.req.id);
          resp.status = WireStatusFromStatus(weight.status());
          if (weight.ok()) resp.weight = *weight;
          break;
        }
        case MsgType::kStats: {
          RefreshStatsCacheLocked();
          resp.json = StatsJson();
          break;
        }
        case MsgType::kSubscribe: {
          if (repl_log_ == nullptr) {
            resp.status = WireStatus::kUnsupported;
            break;
          }
          replica::ReplicationLog::SubscribeResult r = repl_log_->Subscribe(
              w.req.subscriber, w.req.epoch, w.req.wal_seq);
          resp.status = WireStatusFromStatus(r.status);
          if (r.status.ok()) {
            resp.subscriber = r.subscriber;
            resp.epoch = r.epoch;
            resp.total_bytes = r.snapshot_bytes;
            resp.wal_seq = r.wal_next_seq;
            resp.must_bootstrap = r.must_bootstrap;
          }
          break;
        }
        case MsgType::kWalSegment: {
          if (repl_log_ == nullptr) {
            resp.status = WireStatus::kUnsupported;
            break;
          }
          replica::ReplicationLog::SegmentResult r = repl_log_->ReadSegment(
              w.req.subscriber, w.req.epoch, w.req.wal_seq, w.req.max_bytes);
          resp.status = WireStatusFromStatus(r.status);
          if (r.status.ok()) {
            resp.epoch = r.epoch;
            resp.wal_seq = r.next_seq;
            resp.must_bootstrap = r.must_bootstrap;
            resp.blob = std::move(r.bytes);
          }
          break;
        }
        case MsgType::kSnapshotChunk: {
          if (repl_log_ == nullptr) {
            resp.status = WireStatus::kUnsupported;
            break;
          }
          replica::ReplicationLog::ChunkResult r =
              repl_log_->ReadSnapshotChunk(w.req.subscriber, w.req.epoch,
                                           w.req.offset, w.req.max_bytes);
          resp.status = WireStatusFromStatus(r.status);
          if (r.status.ok()) {
            resp.epoch = r.epoch;
            resp.total_bytes = r.total_bytes;
            resp.must_bootstrap = r.must_bootstrap;
            resp.blob = std::move(r.bytes);
          }
          break;
        }
        default:
          resp.status = WireStatus::kProtocolError;
          break;
      }
      Reply(w, resp, m, wake);
    }
  }

  void ProcessBatch(std::vector<Work>& batch, CoreMetrics& m) {
    std::vector<size_t> mutations;
    std::vector<size_t> reads;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (IsMutation(batch[i].req.type)) {
        mutations.push_back(i);
      } else {
        reads.push_back(i);
      }
    }
    std::vector<int> wake;
    // Mutations first: a query admitted in the same drain cycle as an
    // earlier mutation observes it (per-connection arrival order gives
    // read-your-writes; cross-cycle FIFO gives monotonicity).
    if (!mutations.empty()) ApplyMutations(batch, mutations, m, &wake);
    if (!reads.empty()) DrainQueries(batch, reads, m, &wake);
    const uint64_t one = 1;
    for (int fd : wake) {
      [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
    }
  }

  // Replies every parked mutation whose WAL record min_replica_acks
  // replicas now cover; fails the ones past their ack deadline — and, at
  // drain (`fail_all`), every remaining one — with kIoError. The ack was
  // withheld, so failing is honest: the write is locally durable but its
  // replication guarantee was not met.
  void ReleaseParked(bool fail_all, CoreMetrics& m) {
    if (parked_.empty()) return;
    std::vector<int> wake;
    const uint64_t now = NowNs();
    const int need = static_cast<int>(opts_.min_replica_acks);
    size_t kept = 0;
    for (Parked& p : parked_) {
      if (!fail_all && repl_log_->AckCount(p.epoch, p.seq) >= need) {
        Reply(p.work, p.resp, m, &wake);
      } else if (fail_all || now > p.deadline_ns) {
        p.resp.status = WireStatus::kIoError;
        Reply(p.work, p.resp, m, &wake);
      } else {
        parked_[kept++] = std::move(p);
      }
    }
    parked_.resize(kept);
    const uint64_t one = 1;
    for (int fd : wake) {
      [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
    }
  }

  void BatchLoop() {
    CoreMetrics& m = metrics_.core(num_io_);
    std::vector<Work> batch;
    std::vector<std::function<void()>> jobs;
    uint64_t last_stats_refresh = 0;
    for (;;) {
      batch.clear();
      jobs.clear();
      {
        std::unique_lock<std::mutex> lock(qmu_);
        const auto ready = [this] {
          return !queue_.empty() || !control_.empty() ||
                 phase_.load(std::memory_order_acquire) >= 1;
        };
        if (parked_.empty()) {
          qcv_.wait(lock, ready);
        } else {
          // Parked replies need their ack/timeout checks even when no new
          // work arrives.
          qcv_.wait_for(lock, std::chrono::milliseconds(5), ready);
        }
        if (queue_.empty() && control_.empty() &&
            phase_.load(std::memory_order_acquire) >= 1) {
          break;
        }
        while (!control_.empty()) {
          jobs.push_back(std::move(control_.front()));
          control_.pop_front();
        }
        if (!queue_.empty()) {
          // Group-commit window: give other connections batch_window_us to
          // contribute before paying the ApplyBatch + fsync. Skipped when
          // the batch is already full or the server is draining.
          if (opts_.batch_window_us > 0 &&
              queue_.size() < opts_.max_batch_ops &&
              phase_.load(std::memory_order_acquire) == 0) {
            qcv_.wait_for(
                lock, std::chrono::microseconds(opts_.batch_window_us),
                [this] {
                  return queue_.size() >= opts_.max_batch_ops ||
                         phase_.load(std::memory_order_acquire) >= 1;
                });
          }
          const size_t take = std::min(
              queue_.size(), static_cast<size_t>(opts_.max_batch_ops));
          batch.reserve(take);
          for (size_t i = 0; i < take; ++i) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
        }
      }
      for (std::function<void()>& job : jobs) job();
      if (!batch.empty()) ProcessBatch(batch, m);
      ReleaseParked(/*fail_all=*/false, m);
      const uint64_t now = NowNs();
      if (now - last_stats_refresh > 100'000'000ull) {  // 100 ms
        RefreshStatsCacheLocked();
        last_stats_refresh = now;
      }
    }
    // Drain epilogue: every admitted request has been answered or parked.
    // Run any control job that slipped in before the exit was published,
    // strictly fail the parked replies (their acks can no longer arrive),
    // and make the acked state durable before the I/O threads flush.
    jobs.clear();
    {
      std::lock_guard<std::mutex> lock(qmu_);
      batch_done_ = true;
      while (!control_.empty()) {
        jobs.push_back(std::move(control_.front()));
        control_.pop_front();
      }
    }
    for (std::function<void()>& job : jobs) job();
    ReleaseParked(/*fail_all=*/true, m);
    if (durable_ != nullptr) {
      (void)durable_->SyncWal();
      (void)durable_->Checkpoint();
    }
    RefreshStatsCacheLocked();
    phase_.store(2, std::memory_order_release);
    WakeAllIo();
  }

  // Builds the query-burst pool for the current sampler_, or drops it: a
  // pool only for a backend whose SampleInto may race with itself. Called
  // at Start and on the batch thread (the pool's only user) at promotion.
  void ResetQueryPool() {
    query_pool_.reset();
    int qthreads = opts_.query_threads;
    if (qthreads == 0) qthreads = num_io_;
    if (sampler_->capabilities().concurrent_queries && qthreads > 1) {
      query_pool_ = std::make_unique<ThreadPool>(qthreads);
    }
  }

  // Runs `fn` on the batch thread — the sampler's only owner — and blocks
  // until it completes. Must not be called from the batch thread itself.
  // \return kUnsupported once the batch thread has exited (post-drain).
  Status RunOnBatchThread(const std::function<void()>& fn) {
    auto done_mu = std::make_shared<std::mutex>();
    auto done_cv = std::make_shared<std::condition_variable>();
    auto done = std::make_shared<bool>(false);
    {
      std::lock_guard<std::mutex> lock(qmu_);
      if (batch_done_) {
        return UnsupportedError("server has drained; batch thread exited");
      }
      control_.push_back([done_mu, done_cv, done, fn] {
        fn();
        std::lock_guard<std::mutex> dl(*done_mu);
        *done = true;
        done_cv->notify_all();
      });
    }
    qcv_.notify_all();
    std::unique_lock<std::mutex> lock(*done_mu);
    done_cv->wait(lock, [&] { return *done; });
    return Status::Ok();
  }

  // --- Stats --------------------------------------------------------------

  // Refreshes the sampler-derived fields of the cached stats context.
  // Called only from the batch thread (sampler access) and from Start
  // before any thread runs.
  void RefreshStatsCacheLocked() {
    StatsContext ctx;
    ctx.sampler_name = sampler_->name();
    ctx.sampler_size = sampler_->size();
    ctx.sampler_total_weight = sampler_->TotalWeight().ToDouble();
    ctx.sampler_memory = sampler_->ApproxMemoryBytes();
    if (durable_ != nullptr) ctx.wal_bytes = durable_->wal_bytes();
    if (is_replica_.load(std::memory_order_acquire) && replica_ != nullptr) {
      ctx.replication_role = "replica";
      ctx.replica_epoch = replica_->epoch();
      ctx.replica_applied_seq = replica_->applied_seq();
      ctx.replica_divergent = replica_->divergent();
    } else if (repl_log_ != nullptr) {
      ctx.replication_role = "primary";
      ctx.min_replica_acks = opts_.min_replica_acks;
      ctx.parked_mutations = parked_.size();
      for (const replica::ReplicaLag& lag : repl_log_->Lags()) {
        ctx.replica_lags.push_back(ReplicaLagRow{
            lag.subscriber, lag.epoch, lag.applied_seq, lag.lag_records});
      }
    }
    // Shard occupancy is the one sharded-specific stat (a replica reports
    // none); it stays a local downcast until a metrics layer replaces it.
    const Sampler* backend =
        durable_ != nullptr ? &durable_->inner() : sampler_.get();
    if (const auto* sharded = dynamic_cast<const ShardedSampler*>(backend)) {
      for (const ShardedSampler::ShardStats& row :
           sharded->ShardOccupancy()) {
        ctx.shards.push_back(
            ShardOccupancyRow{row.live, row.total_weight_double});
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    // Keep the live fields from being zeroed between refreshes: they are
    // overwritten by FillLiveContext on every export anyway.
    cached_ctx_ = std::move(ctx);
  }

  void FillLiveContext(StatsContext* ctx) const {
    ctx->uptime_seconds =
        static_cast<double>(NowNs() - start_ns_) / 1e9;
    ctx->open_connections = open_conns_.load(std::memory_order_relaxed);
    ctx->queue_depth = queue_depth_.load(std::memory_order_relaxed);
    ctx->queue_limit = opts_.max_queue_depth;
    ctx->inflight_bytes = inflight_bytes_.load(std::memory_order_relaxed);
    ctx->inflight_limit = opts_.max_inflight_bytes;
    ctx->draining = phase_.load(std::memory_order_acquire) >= 1;
  }

  // --- State --------------------------------------------------------------

  const ServerOptions opts_;
  const int num_io_;
  MetricsRegistry metrics_;
  const uint64_t start_ns_;

  std::unique_ptr<Sampler> sampler_;
  persist::DurableSampler* durable_ = nullptr;  // aliases sampler_
  std::unique_ptr<ThreadPool> query_pool_;

  // --- Replication (docs/REPLICATION.md) ---
  // Primary side: created on a durable primary, owned and touched only by
  // the batch thread (like the sampler it tails).
  std::unique_ptr<replica::ReplicationLog> repl_log_;
  // Replica side: aliases sampler_ while serving as a replica (and the
  // retired sampler after a promotion; set once in BuildSampler).
  replica::ReplicaSampler* replica_ = nullptr;
  std::unique_ptr<Sampler> retired_replica_;  // keeps replica_ alive
  std::unique_ptr<replica::Follower> follower_;
  std::atomic<bool> is_replica_{false};
  std::string redirect_addr_;  // kNotPrimary body; fixed after Start
  // A mutation reply parked until min_replica_acks replicas cover its
  // WAL record. Batch-thread-only.
  struct Parked {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    uint64_t deadline_ns = 0;
    Work work;
    Response resp;
  };
  std::deque<Parked> parked_;
  // One-shot jobs executed on the batch thread (sampler owner): promote,
  // DumpItems. Guarded by qmu_; signalled by qcv_.
  std::deque<std::function<void()>> control_;
  std::mutex promote_mu_;
  std::thread promote_thread_;  // signal-triggered promotion
  int promote_efd_ = -1;

  std::vector<int> listen_fds_;
  std::vector<int> wake_fds_;
  int drain_efd_ = -1;
  int bound_port_ = 0;

  // 0 = serving, 1 = draining (no new admissions), 2 = batcher done
  // (I/O threads flush and exit).
  std::atomic<int> phase_{0};
  std::atomic<bool> stopped_{false};

  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<Work> queue_;
  bool batch_done_ = false;  // guarded by qmu_; batch thread has exited
  std::atomic<uint64_t> queue_depth_{0};
  std::atomic<uint64_t> inflight_bytes_{0};
  std::atomic<uint64_t> open_conns_{0};

  mutable std::mutex stats_mu_;
  StatsContext cached_ctx_;

  std::mutex join_mu_;
  std::vector<std::thread> io_threads_;
  std::thread batch_thread_;
};

// --- Public surface -------------------------------------------------------

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() = default;

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& opts) {
  auto impl = std::make_unique<Impl>(opts);
  const Status st = impl->Start();
  if (!st.ok()) return st;
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

int Server::port() const { return impl_->port(); }
void Server::RequestDrain() { impl_->RequestDrain(); }
void Server::NotifyDrainFromSignal() { impl_->NotifyDrainFromSignal(); }
void Server::WaitUntilStopped() { impl_->WaitUntilStopped(); }
bool Server::stopped() const { return impl_->stopped(); }
std::string Server::StatsJson() const { return impl_->StatsJson(); }
uint64_t Server::shed_count() const { return impl_->shed_count(); }
bool Server::is_replica() const { return impl_->is_replica(); }
uint64_t Server::replica_epoch() const { return impl_->replica_epoch(); }
uint64_t Server::replica_applied_seq() const {
  return impl_->replica_applied_seq();
}
Status Server::replication_status() const {
  return impl_->replication_status();
}
Status Server::Promote(uint64_t min_epoch, uint64_t min_seq) {
  return impl_->Promote(min_epoch, min_seq);
}
void Server::NotifyPromoteFromSignal() { impl_->NotifyPromoteFromSignal(); }
Status Server::DumpItems(std::vector<ItemRecord>* out) const {
  return impl_->DumpItems(out);
}

}  // namespace server
}  // namespace dpss
