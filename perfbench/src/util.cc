#include "util.h"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// The workloads (perfbench/README.md says why each was chosen).
const Workload kWorkloads[] = {
    {"serve_read", /*served=*/true, /*durable=*/false, /*n=*/1u << 20,
     /*sample_share=*/0.90, {1, 64}, {0, 1},
     /*setweight/insert/erase=*/1, 0, 0,
     /*open_rate=*/300, /*window=*/8, /*setup_reps=*/3,
     /*checkpoint_wal_bytes=*/0},
    {"serve_durable_write", true, true, 1u << 18, 0.10, {1, 1}, {0, 1},
     1, 1, 1, /*open_rate=*/12500, /*window=*/32, /*setup_reps=*/5,
     /*checkpoint_wal_bytes=*/2u << 20},
    {"embed_mixed", false, false, 1u << 16, 0.50, {1, 1}, {0, 1},
     3, 1, 1, 0, 0, /*setup_reps=*/0, 0},
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void PinThisThread(Cpu where) {
  // The CPUs the process may use, read once before any thread is pinned.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.size() < 4) return;
  cpu_set_t want;
  CPU_ZERO(&want);
  switch (where) {
    case Cpu::kServer:
      CPU_SET(cpus[0], &want);
      CPU_SET(cpus[1], &want);
      break;
    case Cpu::kClientA:
      CPU_SET(cpus[2], &want);
      break;
    case Cpu::kClientB:
      CPU_SET(cpus[3], &want);
      break;
  }
  sched_setaffinity(0, sizeof(want), &want);
}

uint64_t ScaledItems(const Workload& w, const Args& a) {
  return a.tiny ? std::min<uint64_t>(w.n, 1u << 12) : w.n;
}

OpKind Gen::Pick(const Workload& w) {
  if (Unit() < w.sample_share) return OpKind::kSample;
  const double total = w.setweight_part + w.insert_part + w.erase_part;
  const double r = Unit() * total;
  if (r < w.setweight_part) return OpKind::kSetWeight;
  if (r < w.setweight_part + w.insert_part) return OpKind::kInsert;
  return OpKind::kErase;
}

LatencySummary Summarize(std::vector<float> v) {
  LatencySummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it. A quantile counts as supported when ten samples lie above it;
  // otherwise the highest quantile that has ten above it stands in.
  auto at = [&](double q, bool* supported) {
    size_t rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1,
                                     v.size());
    const bool ok = v.size() - rank >= 10;
    if (supported != nullptr) *supported = ok;
    if (!ok) rank = v.size() > 10 ? v.size() - 10 : 1;
    return static_cast<double>(v[rank - 1]);
  };
  s.p50 = at(0.50, nullptr);
  s.p90 = at(0.90, &s.p90_supported);
  s.p99 = at(0.99, &s.p99_supported);
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double BestDecile(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between order statistics, as numpy's default.
  const double pos = (lower_is_better ? 0.1 : 0.9) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double AnalyticMu(const std::vector<uint64_t>& weights, dpss::Rational64 alpha,
                  dpss::Rational64 beta) {
  long double total = 0;
  for (uint64_t w : weights) total += w;
  const long double denom =
      static_cast<long double>(alpha.num) / alpha.den * total +
      static_cast<long double>(beta.num) / beta.den;
  if (denom <= 0) return 0;
  long double mu = 0;
  for (uint64_t w : weights) mu += std::min<long double>(w / denom, 1);
  return static_cast<double>(mu);
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 ", \"parent\": %u, \"request\": %" PRIu64
                 "}%s\n",
                 i + 1, s.name, s.start_ns, s.end_ns, s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Detail(const std::string& key, double value) {
  details_.emplace_back(key, FormatDouble(value));
}

void Report::Detail(const std::string& key, const std::string& value) {
  details_.emplace_back(key, Quote(value));
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  details_.emplace_back("check_failed", Quote(what));
}

void Report::PrintHuman() const {
  for (const Entry& e : metrics_) {
    std::printf("  %-32s %16.6g %s\n", e.name.c_str(), e.value, e.unit);
  }
}

std::string Report::DetailsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < details_.size(); ++i) {
    if (i != 0) out += ", ";
    out += Quote(details_[i].first) + ": " + details_[i].second;
  }
  return out + "}";
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ", ";
    out += Quote(metrics_[i].name) + ": {\"value\": " +
           FormatDouble(metrics_[i].value) + ", \"unit\": " +
           Quote(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

void ReportLatency(Report* r, const std::string& prefix,
                   const LatencyWindows& windows) {
  std::vector<double> p50s, p90s;
  std::vector<float> pooled, group;
  bool p90_supported = true;
  auto close_group = [&] {
    const LatencySummary s = Summarize(group);
    p50s.push_back(s.p50);
    p90s.push_back(s.p90);
    p90_supported = p90_supported && s.p90_supported;
    group.clear();
  };
  // Sparse windows are merged with the following ones until the group
  // holds 100 samples; a short remainder only enters the pooled p99.
  for (const std::vector<float>& w : windows) {
    pooled.insert(pooled.end(), w.begin(), w.end());
    group.insert(group.end(), w.begin(), w.end());
    if (group.size() >= 100) close_group();
  }
  if (p50s.empty() && !group.empty()) close_group();
  const LatencySummary all = Summarize(std::move(pooled));
  r->Detail(prefix + ".samples", static_cast<double>(all.count));
  r->Detail(prefix + ".groups", static_cast<double>(p50s.size()));
  if (all.p99_supported) r->Detail(prefix + ".pooled_p99_us", all.p99);
  if (!p90_supported) {
    r->Detail(prefix + ".p90_note",
              "fewer than 10 samples above the p90; reported the highest "
              "quantile with 10 above it");
  }
  r->Metric(prefix + "_p50_us", BestDecile(p50s, true), "us");
  r->Metric(prefix + "_p90_us", BestDecile(p90s, true), "us");
}

void CheckMeanSize(Report* r, const char* what, double ids, uint64_t queries,
                   double mu) {
  if (queries == 0) {
    r->Fail(std::string(what) + ": no queries answered");
    return;
  }
  const double mean = ids / static_cast<double>(queries);
  const double se = std::sqrt(std::max(mu, 1e-9) / static_cast<double>(queries));
  r->Detail(std::string(what) + ".mean_ids", mean);
  r->Detail(std::string(what) + ".analytic_mu", mu);
  if (std::fabs(mean - mu) > 6 * se) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: mean ids per query %.4f is more than 6 standard errors "
                  "(%.4f) from the analytic mu %.4f",
                  what, mean, se, mu);
    r->Fail(buf);
  }
}

}  // namespace perfbench
