/// \file
/// \brief Live serving metrics: log-bucketed latency histograms and
/// lock-light per-core counters, aggregated on demand into a stable JSON
/// document (the `STATS` response payload).
///
/// The write path is designed for the event loop's budget: recording one
/// sample is a handful of relaxed atomic increments into the calling
/// thread's own `CoreMetrics` slot — no locks, no false sharing (slots are
/// cache-line aligned), no allocation. Aggregation walks every slot and
/// sums, which is O(cores × buckets) and happens only when someone asks
/// (a `STATS` request or the periodic dump), so its cost never shows up in
/// a request latency.
///
/// **Histogram shape.** Values (nanoseconds, or batch occupancies) are
/// binned into 32 linear sub-buckets per power-of-two octave: values
/// below 32 get exact unit buckets, and a value v ≥ 32 with
/// `o = floor(log2 v)` lands in bucket `32·(o−4) + ((v >> (o−5)) & 31)`.
/// A bucket's width is 2^(o−5), i.e. at most 1/32 (3.2%) of its lower
/// bound, so any quantile read from the histogram is off by at most one
/// bucket width — the bound `tests/server_metrics_test.cc` asserts.

#ifndef DPSS_SERVER_METRICS_H_
#define DPSS_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dpss {
namespace server {

/// Request categories tracked separately in the metrics (latency and
/// count per category).
enum class OpKind : uint8_t {
  kInsert = 0,   ///< kInsert and kInsertW requests.
  kErase = 1,    ///< kErase requests.
  kSetWeight = 2,///< kSetWeight requests.
  kGetWeight = 3,///< kGetWeight requests.
  kSample = 4,   ///< kSample requests.
  kStats = 5,    ///< kStats requests.
  kPing = 6,     ///< kPing requests.
};
/// Number of OpKind categories.
inline constexpr int kNumOpKinds = 7;

/// Short lower-case name for an OpKind ("insert", "sample", ...).
const char* OpKindName(OpKind kind);

/// A fixed-size log-bucketed histogram with single-writer relaxed-atomic
/// buckets. One instance is owned (written) by exactly one thread;
/// concurrent readers see each bucket atomically (the cross-bucket view is
/// only eventually consistent, which is all a stats export needs).
class LatencyHistogram {
 public:
  /// Sub-buckets per octave (a power of two), and log2 of it.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Bucket count: 32 unit buckets + 32 sub-buckets × the 59 octaves
  /// [2^5, 2^64).
  static constexpr int kNumBuckets = kSubBuckets * (64 - kSubBucketBits + 1);

  /// Bucket index for a value (see the file comment for the formula).
  static int BucketIndex(uint64_t value);
  /// Smallest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(int index);
  /// Largest value mapping to bucket `index`.
  static uint64_t BucketUpperBound(int index);

  /// Records one sample (relaxed increment of its bucket; owner thread
  /// only).
  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Adds this histogram's bucket counts into `sums` (length kNumBuckets).
  void AccumulateInto(uint64_t* sums) const {
    for (int i = 0; i < kNumBuckets; ++i) {
      sums[i] += buckets_[i].load(std::memory_order_relaxed);
    }
  }

  /// Zeroes every bucket (owner thread only, like Record).
  void Reset() {
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// A merged (plain, non-atomic) histogram view supporting quantile reads.
class HistogramSnapshot {
 public:
  /// Empty snapshot.
  HistogramSnapshot() : buckets_(LatencyHistogram::kNumBuckets, 0) {}

  /// Mutable bucket array (length LatencyHistogram::kNumBuckets) for
  /// accumulation via LatencyHistogram::AccumulateInto.
  uint64_t* buckets() { return buckets_.data(); }

  /// Total recorded samples.
  uint64_t count() const;
  /// The value at quantile `q` in [0, 1]: the upper bound of the bucket
  /// holding the ⌈q·count⌉-th smallest sample (so the true quantile lies
  /// within one bucket width below the returned value). 0 when empty.
  uint64_t ValueAtQuantile(double q) const;
  /// Mean of the per-bucket midpoints weighted by count. 0 when empty.
  double Mean() const;

 private:
  std::vector<uint64_t> buckets_;
};

/// One thread's private metrics slot. All fields are written by the owner
/// thread with relaxed atomics and summed by the aggregator.
struct alignas(64) CoreMetrics {
  // --- transport (written by the owning I/O thread) ---
  std::atomic<uint64_t> bytes_in{0};        ///< Payload+frame bytes read.
  std::atomic<uint64_t> bytes_out{0};       ///< Bytes written to sockets.
  std::atomic<uint64_t> frames_in{0};       ///< CRC-valid frames parsed.
  std::atomic<uint64_t> conns_opened{0};    ///< Connections accepted.
  std::atomic<uint64_t> conns_closed{0};    ///< Connections torn down.
  std::atomic<uint64_t> bad_frames{0};      ///< Framing violations (closed).
  std::atomic<uint64_t> protocol_errors{0}; ///< CRC-valid but malformed.
  std::atomic<uint64_t> shed{0};            ///< Requests load-shed.
  std::atomic<uint64_t> shutdown_rejects{0};///< Rejected while draining.

  // --- request outcomes (written by whichever thread completed the op) ---
  std::atomic<uint64_t> op_count[kNumOpKinds] = {};   ///< Completed ops.
  std::atomic<uint64_t> op_errors[kNumOpKinds] = {};  ///< Non-kOk outcomes.
  LatencyHistogram op_latency_ns[kNumOpKinds];  ///< Arrival→reply latency.

  // --- batching (written by the batch thread) ---
  std::atomic<uint64_t> batches{0};       ///< ApplyBatch group commits.
  std::atomic<uint64_t> batched_ops{0};   ///< Mutations inside them.
  std::atomic<uint64_t> query_bursts{0};  ///< Query drain rounds.
  std::atomic<uint64_t> burst_queries{0}; ///< Queries inside them.
  std::atomic<uint64_t> pooled_bursts{0}; ///< Bursts run on the query pool.
  LatencyHistogram batch_occupancy;       ///< Ops per ApplyBatch call.
};

/// One shard's occupancy as reported in the stats export (see
/// ShardedSampler::ShardOccupancy).
struct ShardOccupancyRow {
  uint64_t live = 0;          ///< Live items in the shard.
  double total_weight = 0.0;  ///< Shard Σw (double; export only).
};

/// One replica's replication position as exported by a primary (see
/// `replica::ReplicationLog::Lags`).
struct ReplicaLagRow {
  uint64_t subscriber = 0;   ///< Subscriber id.
  uint64_t epoch = 0;        ///< Epoch the replica last acked in.
  uint64_t applied_seq = 0;  ///< Last WAL seq the replica applied.
  uint64_t lag_records = 0;  ///< Primary records not yet acked.
};

/// Everything the JSON export needs besides the per-core counters;
/// filled in by the server at export time.
struct StatsContext {
  double uptime_seconds = 0.0;      ///< Since Server::Start.
  uint64_t open_connections = 0;    ///< Currently accepted sockets.
  uint64_t queue_depth = 0;         ///< Requests waiting for the batcher.
  uint64_t queue_limit = 0;         ///< Admission bound on queue_depth.
  uint64_t inflight_bytes = 0;      ///< Request bytes admitted, unreplied.
  uint64_t inflight_limit = 0;      ///< Admission bound on inflight_bytes.
  bool draining = false;            ///< SIGTERM received.
  std::string sampler_name;         ///< Backend registry name.
  uint64_t sampler_size = 0;        ///< Live items.
  double sampler_total_weight = 0.0;///< Σw (double; export only).
  uint64_t sampler_memory = 0;      ///< ApproxMemoryBytes.
  uint64_t wal_bytes = 0;           ///< Current WAL size (durable mode).
  std::vector<ShardOccupancyRow> shards;  ///< Per-shard occupancy.

  // --- replication (docs/REPLICATION.md) ---
  /// "primary" (durable, shipping its WAL), "replica" (following one), or
  /// empty (replication not configured; the section is omitted).
  std::string replication_role;
  uint64_t replica_epoch = 0;        ///< Replica: epoch being followed.
  uint64_t replica_applied_seq = 0;  ///< Replica: last applied WAL seq.
  bool replica_divergent = false;    ///< Replica: id-determinism failure.
  uint32_t min_replica_acks = 0;     ///< Primary: ack quorum (0 = off).
  uint64_t parked_mutations = 0;     ///< Primary: replies awaiting acks.
  std::vector<ReplicaLagRow> replica_lags;  ///< Primary: per-subscriber.
};

/// Fixed-size set of per-core slots, one per server thread.
class MetricsRegistry {
 public:
  /// Creates `num_cores` slots (io threads + the batch thread).
  explicit MetricsRegistry(int num_cores) : cores_(num_cores) {}

  /// Slot for core `i` (stable address for the registry's lifetime).
  CoreMetrics& core(int i) { return cores_[i]; }
  /// Number of slots.
  int num_cores() const { return static_cast<int>(cores_.size()); }

  /// Sums every slot and renders the stable JSON document described in
  /// docs/SERVING.md: `{"server": ..., "ops": {...}, "batch": ...,
  /// "queue": ..., "sampler": ..., "shards": [...]}`.
  std::string ToJson(const StatsContext& ctx) const;

 private:
  // std::deque-free fixed storage: CoreMetrics is not movable (atomics),
  // so the vector is sized once at construction and never resized.
  std::vector<CoreMetrics> cores_;
};

}  // namespace server
}  // namespace dpss

#endif  // DPSS_SERVER_METRICS_H_
