// Client-side pieces shared by the served workloads (served.cc) and the
// server layer of the traced run (traced.cc).

#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "util.h"

namespace perfbench {

// The acknowledged state as the clients saw it. Client threads update it
// on every kOk reply; the checks run after the phases.
class Shadow {
 public:
  void Acked(const dpss::server::Request& req,
             const dpss::server::Response& resp, uint64_t now_ns);
  // Counts a query's ids and checks each against the acked state. An id
  // erased and acked before the query was sent is a failure; an id not yet
  // known is re-checked by Check (its insert ack may still be in flight).
  void Sampled(const std::vector<dpss::ItemId>& ids, uint64_t sent_ns);
  // Fails the report on stale ids or a mean output size off the analytic μ.
  void Check(Report* r, const Workload& w);
  std::vector<std::pair<dpss::ItemId, uint64_t>> LiveItems();
  std::vector<dpss::ItemId> ErasedIds();

 private:
  std::mutex mu_;
  std::unordered_map<dpss::ItemId, uint64_t> live_;
  std::unordered_map<dpss::ItemId, uint64_t> erased_at_;  // ack time
  std::vector<dpss::ItemId> unresolved_;
  uint64_t bad_ids_ = 0;
  uint64_t queries_ = 0;
  double ids_ = 0;
};

// The next generated request. Mutations target ids from `pool`; an erased
// id leaves the pool at once. Inserted ids join it when their ack arrives.
dpss::server::Request MakeRequest(Gen& gen, const Workload& w,
                                  std::vector<dpss::ItemId>* pool);

// Keeps `window` requests in flight on `c`. `make` produces the next one
// (false stops issuing); `done` sees each reply with its send time.
// Returns false when the connection failed.
bool Pipeline(dpss::server::Client& c, int window,
              const std::function<bool(dpss::server::Request*)>& make,
              const std::function<void(const dpss::server::Request&,
                                       const dpss::server::Response&,
                                       uint64_t sent_ns)>& done);

// The server configuration every served run uses: the default backend,
// one event loop, and for durable workloads real fsync on every batch.
dpss::server::ServerOptions MakeServerOptions(const Workload& w,
                                              const std::string& dir);

// Inserts `n` generated items over one pipelined connection, so the
// server sees them in the same order on every run; appends the acked ids to
// `pool`.
bool LoadItems(int port, uint64_t n, Gen& gen, Shadow* shadow,
               std::vector<dpss::ItemId>* pool);

// One query over a fresh connection; true when it was answered.
bool FirstSample(int port, const Workload& w);

// The STATS document of the server on `port` (empty on failure).
std::string FetchStats(int port);

// The number under the nested keys `path` of a STATS document, or -1.
double StatsNumber(const std::string& doc,
                   std::initializer_list<const char*> path);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
