/// \file
/// \brief `dpss::server::Server` — the long-running serving layer wrapping
/// any parameterized sampler backend (optionally durable) behind the wire
/// protocol of `server/protocol.h`.
///
/// \par Architecture
/// Thread-per-core: `io_threads` event-loop threads each own a
/// `SO_REUSEPORT` listening socket on the same port plus the connections
/// the kernel hashes to them, and run a `poll(2)` loop over those fds and
/// an eventfd used for cross-thread wakeups. The read path takes no locks:
/// bytes are read into a per-connection buffer, framed and decoded in
/// place, and pings are answered inline; admitted work is handed to the
/// *batch thread* in one lock acquisition per readable burst.
///
/// The batch thread is the only thread that touches the sampler. It drains
/// the global queue in arrival order, funnels mutation runs into
/// `Sampler::ApplyBatch` (one WAL record — and, in durable mode, one
/// group-commit fsync — per batch), and drains query runs as
/// `SampleInto` bursts, fanned out over the internal `ThreadPool` when the
/// backend advertises `concurrent_queries`. Replies are appended to
/// per-connection outboxes; the owning event loop is woken by eventfd and
/// writes them out.
///
/// \par Admission control
/// Three bounds protect latency under overload, all checked on the event
/// loop *before* enqueueing: the global queue depth, the global admitted
/// in-flight byte total, and a per-connection outstanding-request cap.
/// A request over any bound is answered immediately with
/// `WireStatus::kShed` and never touches the sampler. Slow consumers are
/// bounded separately: an outbox over `max_outbox_bytes` closes the
/// connection.
///
/// \par Drain
/// `RequestDrain()` (or the async-signal-safe `NotifyDrainFromSignal()`,
/// designed for a SIGTERM handler) stops the listeners, answers new
/// requests with `kShuttingDown`, lets the batch thread finish every
/// admitted request, then — in durable mode — fsyncs the WAL and writes a
/// final checkpoint before the event loops flush remaining replies and
/// exit. Every reply sent before the drain acknowledged a durable write
/// survives restart; `tools/dpss_loadgen --ack-log/--verify` proves it.

#ifndef DPSS_SERVER_SERVER_H_
#define DPSS_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/sampler.h"
#include "server/metrics.h"

namespace dpss {
namespace persist {
class Env;  // persist/env.h
}  // namespace persist
namespace server {

/// Construction options for Server::Start.
struct ServerOptions {
  /// Address to bind (localhost-oriented; the protocol has no auth).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Event-loop threads, each with its own SO_REUSEPORT listener.
  /// 0 = one per hardware thread (capped at 16).
  int io_threads = 0;

  /// Registry name of the backend to serve ("halt", "sharded8:halt", ...).
  /// Must advertise `capabilities().parameterized`: Start rejects the
  /// fixed-(α, β) comparators.
  std::string backend = "sharded8:halt";
  /// Spec for the backend (seed, shard count, ...).
  SamplerSpec spec;

  /// Non-empty: run durable — recover this directory via RecoveryManager,
  /// write-ahead-log every mutation, checkpoint on drain.
  std::string durable_dir;
  /// Durable mode: WAL fsync cadence in *records*. Each ApplyBatch is one
  /// record, so 1 (the default) is one fsync per group-commit batch.
  uint32_t wal_sync_every = 1;
  /// Durable mode: auto-checkpoint once the WAL exceeds this many bytes
  /// (0 = only the final drain checkpoint).
  uint64_t checkpoint_wal_bytes = 256ull << 20;

  /// Most mutations funneled into one ApplyBatch call.
  uint32_t max_batch_ops = 2048;
  /// Group-commit cap, in microseconds: how long a durable server holds a
  /// batch that contains a mutation, so that mutations from other
  /// connections share its WAL record and fsync. The knob trades mutation
  /// latency against fsyncs per op. Every other batch (all reads, or any
  /// batch of an in-memory server or a replica) runs as soon as it is
  /// queued, since it has no fsync to share.
  uint32_t batch_window_us = 200;

  /// Admission bound: queued-but-unprocessed requests across all
  /// connections. Exceeding it sheds.
  uint64_t max_queue_depth = 16384;
  /// Admission bound: admitted request bytes not yet replied to.
  uint64_t max_inflight_bytes = 32ull << 20;
  /// Admission bound: outstanding requests per connection.
  uint32_t max_conn_pending = 4096;
  /// Slow-consumer bound: a connection whose unread replies exceed this
  /// many bytes is closed.
  uint64_t max_outbox_bytes = 8ull << 20;
  /// Server-side cap on ids in one kSample reply (a request's smaller
  /// `max_ids` wins). Bounds reply frames well under kMaxPayloadLen.
  uint32_t max_sample_ids = 65536;

  /// Width of the query-burst drain pool. Effective only when the backend
  /// advertises `concurrent_queries`; 0 = match io_threads,
  /// 1 = drain bursts serially on the batch thread.
  int query_threads = 0;

  /// How long the drain epilogue keeps flushing unread reply bytes to
  /// slow sockets before giving up and closing them. 0 means *no grace*:
  /// whatever one final flush pass moves is sent and every socket still
  /// holding unread bytes is closed immediately — a deliberate fast-drain
  /// setting, not an error.
  uint32_t drain_flush_grace_ms = 2000;

  /// Filesystem for durable/replica state; null = the real filesystem.
  /// Tests inject a `persist::MemEnv` to run servers hermetically.
  persist::Env* env = nullptr;

  // --- Replication (docs/REPLICATION.md) ---------------------------------

  /// Non-empty "host:port": run as a *read replica* of that primary. The
  /// server bootstraps and follows it over the replication protocol,
  /// serves reads (kSample/kGetWeight/kStats) from the replicated state,
  /// and answers mutations with `kNotPrimary` carrying this address.
  /// Requires `durable_dir` (the local mirror directory); `backend`/`spec`
  /// shape only the empty pre-bootstrap sampler.
  std::string replica_of;

  /// Durable primary: a mutation is acked only once this many replicas
  /// have durably applied its WAL record (0 = ack on local fsync alone,
  /// the previous behaviour). Replies wait parked on the batch thread and
  /// fail with `kIoError` after `replica_ack_timeout_ms` — never a fake
  /// kOk.
  uint32_t min_replica_acks = 0;

  /// How long a mutation reply may wait for replica acks. Unlike
  /// `drain_flush_grace_ms`, 0 is *not* a meaningful setting here — it
  /// would expire every parked reply on arrival, failing all mutations —
  /// so `Start` rejects 0 with `kInvalidArgument` whenever
  /// `min_replica_acks > 0` (with acks off the field is unused and any
  /// value is accepted).
  uint32_t replica_ack_timeout_ms = 5000;

  /// Address handed out in `kNotPrimary` redirects (empty = `replica_of`
  /// verbatim). Set it when clients reach the primary by a different
  /// address than the replica dials.
  std::string advertise_addr;
};

/// A running server instance. Construction binds and spawns the threads;
/// destruction drains (see RequestDrain) and joins them.
class Server {
 public:
  /// Binds `host:port`, builds (or recovers) the backend, spawns the event
  /// loops and the batch thread.
  /// \return `kInvalidArgument` for an unknown or unparameterized backend
  ///   (checked in every mode, before any directory is touched) or bad
  ///   options, `kIoError` when binding or recovery fails.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& opts);

  /// Drains and joins (idempotent).
  ~Server();

  /// The bound TCP port (the resolved ephemeral port when opts.port == 0).
  int port() const;

  /// Begins a graceful drain from any ordinary thread: stop accepting,
  /// answer new requests with kShuttingDown, finish admitted work, flush
  /// WAL + final checkpoint (durable mode), flush replies, exit the
  /// threads. Idempotent.
  void RequestDrain();

  /// Async-signal-safe drain trigger (a single write(2) to an eventfd);
  /// install this in a SIGTERM/SIGINT handler.
  void NotifyDrainFromSignal();

  /// Blocks until every server thread has exited (the drain is complete
  /// and all durable state is on disk).
  void WaitUntilStopped();

  /// True once WaitUntilStopped would return without blocking.
  bool stopped() const;

  /// The live metrics document (the same JSON a kStats request returns).
  /// Safe from any thread at any rate; sampler-derived fields are the
  /// batch thread's most recent published snapshot.
  std::string StatsJson() const;

  /// Total load-shed responses so far (convenience for tests and tools).
  uint64_t shed_count() const;

  // --- Replication (docs/REPLICATION.md) ---------------------------------

  /// True while this server serves as a read replica (replica_of was set
  /// and Promote has not succeeded).
  bool is_replica() const;

  /// Replica: the followed epoch (0 until the first bootstrap).
  uint64_t replica_epoch() const;
  /// Replica: last WAL seq applied within replica_epoch().
  uint64_t replica_applied_seq() const;
  /// Ok while the follower is healthy; the terminal replication error
  /// otherwise (`kUnsupported` primary, or divergence).
  Status replication_status() const;

  /// Replica mode: stop following and become a primary. The follower is
  /// joined, the inherited epoch sealed, and the mirror directory opened
  /// through ordinary recovery (id-verified replay + rotation to a fresh
  /// WAL); afterwards the server accepts mutations and ships its own WAL.
  /// Refuses (`kInvalidArgument`) when the replica never bootstrapped or
  /// its applied position is behind (`min_epoch`, `min_seq`) — a stale
  /// replica must not silently become the source of truth.
  Status Promote(uint64_t min_epoch = 0, uint64_t min_seq = 0);

  /// Async-signal-safe promote trigger (a single write(2) to an eventfd);
  /// install this in a SIGUSR1 handler. The promotion itself runs on a
  /// background thread with a (0, 0) staleness floor.
  void NotifyPromoteFromSignal();

  /// Dumps the served sampler's live items through the batch thread (the
  /// only sampler owner), so it is safe at any time; tests use it to
  /// compare primary and replica state after quiescing writes.
  Status DumpItems(std::vector<ItemRecord>* out) const;

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace server
}  // namespace dpss

#endif  // DPSS_SERVER_SERVER_H_
