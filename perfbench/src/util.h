// Shared pieces of the benchmark program: the workload table, the seeded
// input generator, exact latency statistics, span tracing and the result
// report. perfbench/README.md explains the workloads and metrics.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bigint/rational.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

// One workload's fixed definition. Every later run is compared against
// these values, so changing one redefines the benchmark.
struct Workload {
  const char* name;
  bool served;   // through server::Server, else in-process MakeSampler
  bool durable;  // served with a durable directory (real fsync)
  uint64_t n;    // live items loaded before measuring
  double sample_share;  // share of operations that are queries
  dpss::Rational64 alpha;
  dpss::Rational64 beta;
  // Relative shares of the mutation kinds among the non-query operations.
  double setweight_part;
  double insert_part;
  double erase_part;
  // Served: requests/s offered by the open-loop latency phase, fixed at an
  // eighth of the closed-loop saturation rate measured when the benchmark
  // was defined (perfbench/README.md says why); never re-derived per commit.
  double open_rate;
  int window;      // served: closed-loop pipelining window per connection
  // Served: set-ups per run, setup_s is their lowest decile. embed_mixed
  // sets up once per round instead (embedded.cc).
  int setup_reps;
  // Durable: ServerOptions::checkpoint_wal_bytes, small enough that several
  // auto-checkpoints fire in every run.
  uint64_t checkpoint_wal_bytes;
};

const Workload* FindWorkload(const std::string& name);

// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;        // self-test sizes (perfbench/selftest.py)
  std::string workdir;      // scratch directory for durable state
  std::string outdir;       // where the traced run writes its spans
};

// CPU placement. The benchmark runs at most four busy threads: the
// server's event loop and batch thread share the first two allowed CPUs and
// each client (or in-process) thread gets one of the other two to itself.
// Without pinning, thread migrations inside a small VM moved single-thread
// latencies by up to 50% between identical runs. With fewer than four
// allowed CPUs nothing is pinned.
enum class Cpu { kServer, kClientA, kClientB };
void PinThisThread(Cpu where);

// Sizes scaled down for the self-test.
uint64_t ScaledItems(const Workload& w, const Args& a);

enum class OpKind { kSample, kSetWeight, kInsert, kErase };

// The seeded input generator. Everything the program under test receives
// (weights, operation kinds, targets) comes from here.
class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}
  // Uniform in [1, 1500]. The range keeps every weight bucket's expected
  // size at least 30% away from a power of two, so a capacity doubling
  // inside the structure does not flip between seeds.
  uint64_t Weight() { return 1 + rng_() % 1500; }
  uint64_t Below(uint64_t n) { return rng_() % n; }
  uint64_t Raw() { return rng_(); }
  double Unit() { return std::uniform_real_distribution<double>(0, 1)(rng_); }
  OpKind Pick(const Workload& w);

 private:
  std::mt19937_64 rng_;
};

// Exact latency summary of raw samples (nearest rank, no histogram). A
// quantile is supported when at least ten samples lie above it; an
// unsupported one holds the highest quantile that has ten above it.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  bool p90_supported = false;
  bool p99_supported = false;
};
LatencySummary Summarize(std::vector<float> samples);

// Median of a handful of repeated measurements.
double Median(std::vector<double> v);

// Combines per-window values of one run by their best decile: the 10th
// percentile for times, the 90th for rates. Contention from other tenants
// of a shared host only ever adds time, in stretches of seconds that cover
// up to half a run, so this tracks the code's own cost and not the
// neighbours'.
double BestDecile(std::vector<double> v, bool lower_is_better);

// The analytic expected output size Σ min(w / (α·Σw + β), 1).
double AnalyticMu(const std::vector<uint64_t>& weights, dpss::Rational64 alpha,
                  dpss::Rational64 beta);

// In-memory spans (name, start, end, parent, request id), written out when
// the traced run ends.
class Tracer {
 public:
  // Returns the new span's id; `parent` 0 means a root span.
  uint32_t Begin(const char* name, uint32_t parent = 0, uint64_t request = 0);
  void End(uint32_t id);
  size_t size() const { return spans_.size(); }
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
};

// What one run reports: the metrics of the final line, free-form details
// for the results file, the attempted/failed counts and the output checks.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::string& value);
  // A failed output check: the run reports correct=false and exits non-zero.
  void Fail(const std::string& what);
  void Attempt(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  void PrintHuman() const;
  std::string DetailsJson() const;
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;  // raw JSON
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// Raw per-request latencies in microseconds, split into consecutive time
// windows of one run.
using LatencyWindows = std::vector<std::vector<float>>;

// Emits `<prefix>_p50_us` and `<prefix>_p90_us`: consecutive windows are
// grouped until a group holds at least 100 samples (so ten lie above its
// p90), and the exact percentiles of the groups are combined by
// BestDecile. The tail metric is the p90, not the p99: on a small VM the
// vCPUs stall for 1-9 ms about once a second each, which on the served
// workloads moved the p99 by up to 10x between identical runs. The pooled
// exact p99 and the sample counts go into the details.
void ReportLatency(Report* r, const std::string& prefix,
                   const LatencyWindows& windows);

// Fails the report unless the mean ids per query lies within six standard
// errors of the analytic μ (a query's count has variance at most μ).
void CheckMeanSize(Report* r, const char* what, double ids, uint64_t queries,
                   double mu);

// The workloads.
void RunEmbedded(const Workload& w, const Args& a, Report* r);
void RunServed(const Workload& w, const Args& a, Report* r);
void RunTraced(const Workload& w, const Args& a, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
