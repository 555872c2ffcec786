// Metrics implementation: histogram bucket math, aggregation, and the JSON
// renderer for the STATS payload. The JSON is hand-rolled (no dependency)
// and its key set is part of the protocol surface — tests pin it, and
// tools/dpss_loadgen + dashboards parse it.

#include "server/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/bits.h"

namespace dpss {
namespace server {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert: return "insert";
    case OpKind::kErase: return "erase";
    case OpKind::kSetWeight: return "setweight";
    case OpKind::kGetWeight: return "getweight";
    case OpKind::kSample: return "sample";
    case OpKind::kStats: return "stats";
    case OpKind::kPing: return "ping";
  }
  return "unknown";
}

int LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  const int o = FloorLog2(value);
  const int sub =
      static_cast<int>((value >> (o - kSubBucketBits)) & (kSubBuckets - 1));
  return kSubBuckets * (o - kSubBucketBits + 1) + sub;
}

uint64_t LatencyHistogram::BucketLowerBound(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  const int o = index / kSubBuckets + kSubBucketBits - 1;
  const int sub = index % kSubBuckets;
  return (uint64_t{1} << o) +
         static_cast<uint64_t>(sub) * (uint64_t{1} << (o - kSubBucketBits));
}

uint64_t LatencyHistogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  const int o = index / kSubBuckets + kSubBucketBits - 1;
  return BucketLowerBound(index) + (uint64_t{1} << (o - kSubBucketBits)) - 1;
}

uint64_t HistogramSnapshot::count() const {
  uint64_t n = 0;
  for (uint64_t c : buckets_) n += c;
  return n;
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target sample, 1-based; q=0 means the smallest sample.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return LatencyHistogram::BucketUpperBound(i);
  }
  return LatencyHistogram::BucketUpperBound(LatencyHistogram::kNumBuckets -
                                            1);
}

double HistogramSnapshot::Mean() const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double mid =
        0.5 * (static_cast<double>(LatencyHistogram::BucketLowerBound(i)) +
               static_cast<double>(LatencyHistogram::BucketUpperBound(i)));
    sum += mid * static_cast<double>(buckets_[i]);
  }
  return sum / static_cast<double>(n);
}

namespace {

void AppendKV(std::string* out, const char* key, uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64, key, v);
  out->append(buf);
}

void AppendKV(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key, v);
  out->append(buf);
}

void AppendKVString(std::string* out, const char* key, const std::string& v) {
  out->append("\"").append(key).append("\": \"");
  // The only strings exported are registry names and op names; escape the
  // JSON-special characters anyway so the document can never be broken.
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out->push_back(c);
    }
  }
  out->append("\"");
}

uint64_t SumCounter(const std::vector<CoreMetrics>& cores,
                    std::atomic<uint64_t> CoreMetrics::* field) {
  uint64_t total = 0;
  for (const CoreMetrics& c : cores) {
    total += (c.*field).load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

std::string MetricsRegistry::ToJson(const StatsContext& ctx) const {
  std::string out;
  out.reserve(2048);
  out.append("{\n  \"server\": {");
  AppendKV(&out, "uptime_seconds", ctx.uptime_seconds);
  out.append(", ");
  AppendKV(&out, "open_connections", ctx.open_connections);
  out.append(", ");
  AppendKV(&out, "connections_opened",
           SumCounter(cores_, &CoreMetrics::conns_opened));
  out.append(", ");
  AppendKV(&out, "connections_closed",
           SumCounter(cores_, &CoreMetrics::conns_closed));
  out.append(", ");
  AppendKV(&out, "bytes_in", SumCounter(cores_, &CoreMetrics::bytes_in));
  out.append(", ");
  AppendKV(&out, "bytes_out", SumCounter(cores_, &CoreMetrics::bytes_out));
  out.append(", ");
  AppendKV(&out, "frames_in", SumCounter(cores_, &CoreMetrics::frames_in));
  out.append(", ");
  AppendKV(&out, "bad_frames", SumCounter(cores_, &CoreMetrics::bad_frames));
  out.append(", ");
  AppendKV(&out, "protocol_errors",
           SumCounter(cores_, &CoreMetrics::protocol_errors));
  out.append(", ");
  AppendKV(&out, "shed", SumCounter(cores_, &CoreMetrics::shed));
  out.append(", ");
  AppendKV(&out, "shutdown_rejects",
           SumCounter(cores_, &CoreMetrics::shutdown_rejects));
  out.append(", ");
  AppendKV(&out, "draining", static_cast<uint64_t>(ctx.draining ? 1 : 0));
  out.append("},\n  \"ops\": {");
  bool first_op = true;
  for (int k = 0; k < kNumOpKinds; ++k) {
    HistogramSnapshot snap;
    uint64_t count = 0, errors = 0;
    for (const CoreMetrics& c : cores_) {
      count += c.op_count[k].load(std::memory_order_relaxed);
      errors += c.op_errors[k].load(std::memory_order_relaxed);
      c.op_latency_ns[k].AccumulateInto(snap.buckets());
    }
    if (!first_op) out.append(", ");
    first_op = false;
    out.append("\"")
        .append(OpKindName(static_cast<OpKind>(k)))
        .append("\": {");
    AppendKV(&out, "count", count);
    out.append(", ");
    AppendKV(&out, "errors", errors);
    out.append(", ");
    AppendKV(&out, "mean_ns", snap.Mean());
    out.append(", ");
    AppendKV(&out, "p50_ns", snap.ValueAtQuantile(0.50));
    out.append(", ");
    AppendKV(&out, "p99_ns", snap.ValueAtQuantile(0.99));
    out.append(", ");
    AppendKV(&out, "p999_ns", snap.ValueAtQuantile(0.999));
    out.append("}");
  }
  out.append("},\n  \"batch\": {");
  {
    HistogramSnapshot occ;
    for (const CoreMetrics& c : cores_) {
      c.batch_occupancy.AccumulateInto(occ.buckets());
    }
    AppendKV(&out, "batches", SumCounter(cores_, &CoreMetrics::batches));
    out.append(", ");
    AppendKV(&out, "batched_ops",
             SumCounter(cores_, &CoreMetrics::batched_ops));
    out.append(", ");
    AppendKV(&out, "query_bursts",
             SumCounter(cores_, &CoreMetrics::query_bursts));
    out.append(", ");
    AppendKV(&out, "burst_queries",
             SumCounter(cores_, &CoreMetrics::burst_queries));
    out.append(", ");
    AppendKV(&out, "pooled_bursts",
             SumCounter(cores_, &CoreMetrics::pooled_bursts));
    out.append(", ");
    AppendKV(&out, "mean_occupancy", occ.Mean());
    out.append(", ");
    AppendKV(&out, "p99_occupancy", occ.ValueAtQuantile(0.99));
  }
  out.append("},\n  \"queue\": {");
  AppendKV(&out, "depth", ctx.queue_depth);
  out.append(", ");
  AppendKV(&out, "limit", ctx.queue_limit);
  out.append(", ");
  AppendKV(&out, "inflight_bytes", ctx.inflight_bytes);
  out.append(", ");
  AppendKV(&out, "inflight_limit", ctx.inflight_limit);
  out.append("},\n  \"sampler\": {");
  AppendKVString(&out, "name", ctx.sampler_name);
  out.append(", ");
  AppendKV(&out, "size", ctx.sampler_size);
  out.append(", ");
  AppendKV(&out, "total_weight", ctx.sampler_total_weight);
  out.append(", ");
  AppendKV(&out, "memory_bytes", ctx.sampler_memory);
  out.append(", ");
  AppendKV(&out, "wal_bytes", ctx.wal_bytes);
  out.append("},\n  \"shards\": [");
  for (size_t s = 0; s < ctx.shards.size(); ++s) {
    if (s != 0) out.append(", ");
    out.append("{");
    AppendKV(&out, "shard", static_cast<uint64_t>(s));
    out.append(", ");
    AppendKV(&out, "live", ctx.shards[s].live);
    out.append(", ");
    AppendKV(&out, "total_weight", ctx.shards[s].total_weight);
    out.append("}");
  }
  out.append("]");
  if (!ctx.replication_role.empty()) {
    out.append(",\n  \"replication\": {");
    AppendKVString(&out, "role", ctx.replication_role);
    if (ctx.replication_role == "replica") {
      out.append(", ");
      AppendKV(&out, "epoch", ctx.replica_epoch);
      out.append(", ");
      AppendKV(&out, "applied_seq", ctx.replica_applied_seq);
      out.append(", ");
      AppendKV(&out, "divergent",
               static_cast<uint64_t>(ctx.replica_divergent ? 1 : 0));
    } else {
      out.append(", ");
      AppendKV(&out, "min_replica_acks",
               static_cast<uint64_t>(ctx.min_replica_acks));
      out.append(", ");
      AppendKV(&out, "parked_mutations", ctx.parked_mutations);
      out.append(", \"replicas\": [");
      for (size_t r = 0; r < ctx.replica_lags.size(); ++r) {
        if (r != 0) out.append(", ");
        out.append("{");
        AppendKV(&out, "subscriber", ctx.replica_lags[r].subscriber);
        out.append(", ");
        AppendKV(&out, "epoch", ctx.replica_lags[r].epoch);
        out.append(", ");
        AppendKV(&out, "applied_seq", ctx.replica_lags[r].applied_seq);
        out.append(", ");
        AppendKV(&out, "lag_records", ctx.replica_lags[r].lag_records);
        out.append("}");
      }
      out.append("]");
    }
    out.append("}");
  }
  out.append("\n}\n");
  return out;
}

}  // namespace server
}  // namespace dpss
