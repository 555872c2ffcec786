// Unit tests for the serving metrics (server/metrics.h): log-bucket
// boundary math, cross-core merge, the documented quantile error bound
// (≤ one bucket width, i.e. ≤ 1/32 of the value), and the stability of the
// exported JSON schema that dashboards and tools parse.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/metrics.h"
#include "util/random.h"

namespace dpss {
namespace server {
namespace {

// --- Bucket math ----------------------------------------------------------

TEST(ServerMetricsTest, BucketBoundsPartitionTheValueLine) {
  // Bucket bounds must tile [0, 2^63) without gaps or overlaps: each
  // bucket's lower bound is the previous bucket's upper bound + 1.
  for (int i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(i),
              LatencyHistogram::BucketUpperBound(i - 1) + 1)
        << "gap/overlap between buckets " << i - 1 << " and " << i;
  }
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(0), 0u);
}

TEST(ServerMetricsTest, BucketIndexMatchesBounds) {
  // Every bucket's own bounds map back to it, for the whole table.
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(
                  LatencyHistogram::BucketLowerBound(i)),
              i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(
                  LatencyHistogram::BucketUpperBound(i)),
              i);
  }
  // Spot values.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 3);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 4);
  // Huge values clamp into the last bucket instead of indexing out of
  // bounds.
  EXPECT_EQ(LatencyHistogram::BucketIndex(~uint64_t{0}),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(ServerMetricsTest, BucketWidthIsAtMostOneThirtySecondOfLowerBound) {
  // The quantile error bound rests on this: for v >= 32 the bucket width
  // is 2^(o-5), at most 1/32 of the bucket's lower bound. Below 32 every
  // bucket holds one value.
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
    const uint64_t hi = LatencyHistogram::BucketUpperBound(i);
    if (lo < 32) {
      EXPECT_EQ(hi, lo) << "bucket " << i;
      continue;
    }
    EXPECT_LE(hi - lo + 1, lo / 32 + (lo % 32 != 0))
        << "bucket " << i << " [" << lo << ", " << hi << "]";
  }
}

// --- Quantile error bound -------------------------------------------------

TEST(ServerMetricsTest, QuantileErrorWithinOneBucketWidth) {
  RandomEngine rng(0x9151);
  // A log-uniform-ish workload: values spanning 6 orders of magnitude.
  std::vector<uint64_t> values;
  LatencyHistogram hist;
  for (int i = 0; i < 20000; ++i) {
    const int octave = static_cast<int>(rng.NextBelow(20));
    const uint64_t v = (uint64_t{1} << octave) + rng.NextBits(octave);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap;
  hist.AccumulateInto(snap.buckets());
  ASSERT_EQ(snap.count(), values.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t rank = static_cast<uint64_t>(q * values.size());
    if (rank == 0) rank = 1;
    const uint64_t exact = values[rank - 1];
    const uint64_t est = snap.ValueAtQuantile(q);
    // The estimate is the upper bound of the exact value's bucket: it can
    // only overshoot, by strictly less than one bucket width.
    const int bucket = LatencyHistogram::BucketIndex(exact);
    const uint64_t width = LatencyHistogram::BucketUpperBound(bucket) -
                           LatencyHistogram::BucketLowerBound(bucket) + 1;
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est - exact, width) << "q=" << q;
    // And the relative form the file comment promises: <= 1/32.
    EXPECT_LE(static_cast<double>(est - exact),
              static_cast<double>(exact) / 32 + 1.0)
        << "q=" << q;
  }
}

TEST(ServerMetricsTest, QuantilesOfKnownDistributionWithinFivePercent) {
  // Latency-like values: a log-normal body around 200 µs (in ns) with a
  // heavy tail. Every reported quantile must lie within 5% of the exact
  // order statistic.
  RandomEngine rng(0x5eed);
  std::vector<uint64_t> values;
  LatencyHistogram hist;
  for (int i = 0; i < 50000; ++i) {
    double u1 = (static_cast<double>(rng.NextBits(52)) + 0.5) * 0x1p-52;
    double u2 = static_cast<double>(rng.NextBits(52)) * 0x1p-52;
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const uint64_t v = static_cast<uint64_t>(2e5 * std::exp(0.8 * z));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap;
  hist.AccumulateInto(snap.buckets());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    uint64_t rank = static_cast<uint64_t>(q * values.size());
    if (rank == 0) rank = 1;
    const double exact = static_cast<double>(values[rank - 1]);
    const double est = static_cast<double>(snap.ValueAtQuantile(q));
    EXPECT_LE(std::abs(est - exact), 0.05 * exact) << "q=" << q;
  }
}

TEST(ServerMetricsTest, QuantileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);

  LatencyHistogram one;
  one.Record(100);
  HistogramSnapshot snap;
  one.AccumulateInto(snap.buckets());
  EXPECT_EQ(snap.count(), 1u);
  // All quantiles of a single sample land in its bucket.
  const int b = LatencyHistogram::BucketIndex(100);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(snap.ValueAtQuantile(q), LatencyHistogram::BucketUpperBound(b));
  }
}

// --- Merge across cores ---------------------------------------------------

TEST(ServerMetricsTest, MergeAcrossCoresEqualsSingleHistogram) {
  RandomEngine rng(0x4242);
  MetricsRegistry registry(4);
  LatencyHistogram reference;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextBelow(1 << 20);
    const int core = static_cast<int>(rng.NextBelow(4));
    registry.core(core).op_latency_ns[0].Record(v);
    reference.Record(v);
  }
  HistogramSnapshot merged;
  for (int c = 0; c < 4; ++c) {
    registry.core(c).op_latency_ns[0].AccumulateInto(merged.buckets());
  }
  HistogramSnapshot ref;
  reference.AccumulateInto(ref.buckets());
  ASSERT_EQ(merged.count(), ref.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.ValueAtQuantile(q), ref.ValueAtQuantile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(merged.Mean(), ref.Mean());
}

TEST(ServerMetricsTest, ResetZeroesEveryBucket) {
  LatencyHistogram h;
  for (uint64_t v : {1u, 100u, 10000u}) h.Record(v);
  h.Reset();
  HistogramSnapshot snap;
  h.AccumulateInto(snap.buckets());
  EXPECT_EQ(snap.count(), 0u);
}

// --- JSON schema stability ------------------------------------------------

TEST(ServerMetricsTest, JsonSchemaKeysAreStable) {
  MetricsRegistry registry(2);
  registry.core(0).bytes_in.store(100);
  registry.core(1).bytes_in.store(23);
  registry.core(0).shed.store(7);
  registry.core(0).op_count[static_cast<int>(OpKind::kSample)].store(5);
  registry.core(0)
      .op_latency_ns[static_cast<int>(OpKind::kSample)]
      .Record(1000);

  StatsContext ctx;
  ctx.uptime_seconds = 12.5;
  ctx.open_connections = 3;
  ctx.queue_depth = 1;
  ctx.queue_limit = 100;
  ctx.sampler_name = "sharded8:halt";
  ctx.sampler_size = 42;
  ctx.shards = {{21, 10.0}, {21, 12.0}};
  const std::string json = registry.ToJson(ctx);

  // Top-level sections in order, and the per-section keys the loadgen and
  // the smoke job grep for. Changing any of these is a protocol break.
  for (const char* key :
       {"\"server\"", "\"ops\"", "\"batch\"", "\"queue\"", "\"sampler\"",
        "\"shards\"", "\"uptime_seconds\"", "\"open_connections\"",
        "\"connections_opened\"", "\"connections_closed\"", "\"bytes_in\"",
        "\"bytes_out\"", "\"frames_in\"", "\"bad_frames\"",
        "\"protocol_errors\"", "\"shed\"", "\"shutdown_rejects\"",
        "\"draining\"", "\"insert\"", "\"erase\"", "\"setweight\"",
        "\"getweight\"", "\"sample\"", "\"stats\"", "\"ping\"", "\"count\"",
        "\"errors\"", "\"mean_ns\"", "\"p50_ns\"", "\"p99_ns\"",
        "\"p999_ns\"", "\"batches\"", "\"batched_ops\"", "\"query_bursts\"",
        "\"burst_queries\"", "\"pooled_bursts\"", "\"mean_occupancy\"",
        "\"p99_occupancy\"",
        "\"depth\"", "\"limit\"", "\"inflight_bytes\"", "\"inflight_limit\"",
        "\"name\"", "\"size\"", "\"total_weight\"", "\"memory_bytes\"",
        "\"wal_bytes\"", "\"shard\"", "\"live\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
  // Merged counter values land in the document.
  EXPECT_NE(json.find("\"bytes_in\": 123"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"sharded8:halt\""), std::string::npos);
  // Two shard rows.
  EXPECT_NE(json.find("\"shard\": 1"), std::string::npos);
}

TEST(ServerMetricsTest, JsonEscapesStrings) {
  MetricsRegistry registry(1);
  StatsContext ctx;
  ctx.sampler_name = "we\"ird\\name";
  const std::string json = registry.ToJson(ctx);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos) << json;
}

TEST(ServerMetricsTest, OpKindNamesAreStable) {
  EXPECT_STREQ(OpKindName(OpKind::kInsert), "insert");
  EXPECT_STREQ(OpKindName(OpKind::kErase), "erase");
  EXPECT_STREQ(OpKindName(OpKind::kSetWeight), "setweight");
  EXPECT_STREQ(OpKindName(OpKind::kGetWeight), "getweight");
  EXPECT_STREQ(OpKindName(OpKind::kSample), "sample");
  EXPECT_STREQ(OpKindName(OpKind::kStats), "stats");
  EXPECT_STREQ(OpKindName(OpKind::kPing), "ping");
}

}  // namespace
}  // namespace server
}  // namespace dpss
