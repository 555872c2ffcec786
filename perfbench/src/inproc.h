// In-process operation replay shared by embed_mixed (embedded.cc) and the
// library layers of the traced run (traced.cc).

#ifndef PERFBENCH_INPROC_H_
#define PERFBENCH_INPROC_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/item_id.h"
#include "core/sampler.h"
#include "util.h"

namespace perfbench {

// The generator's copy of the live set: O(1) random pick, swap-remove and
// membership, plus the exact total weight. Membership is a side array
// indexed by the id's dense slot (core/item_id.h), so keeping the pool up
// to date costs a few array writes and no hashing.
class LivePool {
 public:
  void Add(dpss::ItemId id, uint64_t w) {
    const uint64_t slot = dpss::SlotIndexOf(id);
    if (slot >= pos_.size()) {
      pos_.resize(std::max<size_t>(slot + 1, 2 * pos_.size()), kNone);
    }
    pos_[slot] = static_cast<uint32_t>(ids_.size());
    ids_.push_back(id);
    weights_.push_back(w);
    total_ += w;
  }
  void Set(size_t i, uint64_t w) {
    total_ = total_ - weights_[i] + w;
    weights_[i] = w;
  }
  void Remove(size_t i) {
    total_ -= weights_[i];
    pos_[dpss::SlotIndexOf(ids_[i])] = kNone;
    if (i + 1 != ids_.size()) {
      ids_[i] = ids_.back();
      weights_[i] = weights_.back();
      pos_[dpss::SlotIndexOf(ids_[i])] = static_cast<uint32_t>(i);
    }
    ids_.pop_back();
    weights_.pop_back();
  }
  bool Contains(dpss::ItemId id) const {
    const uint64_t slot = dpss::SlotIndexOf(id);
    return slot < pos_.size() && pos_[slot] != kNone && ids_[pos_[slot]] == id;
  }
  size_t size() const { return ids_.size(); }
  dpss::ItemId id(size_t i) const { return ids_[i]; }
  uint64_t total() const { return total_; }
  const std::vector<uint64_t>& weights() const { return weights_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  std::vector<dpss::ItemId> ids_;
  std::vector<uint64_t> weights_;
  std::vector<uint32_t> pos_;  // slot -> index in ids_, or kNone
  uint64_t total_ = 0;
};

// One generated operation. NextStep leaves `target` raw; Bind reduces it to
// an index into the pool the step runs against, so steps can be drawn ahead
// of the pool state.
struct Step {
  OpKind kind;
  uint64_t target;
  uint64_t weight;
};

inline Step NextStep(Gen& gen, const Workload& w) {
  const OpKind kind = gen.Pick(w);
  const uint64_t target = gen.Raw();
  return {kind, target, gen.Weight()};
}

// Keeps the pool at `steady` or one below (and never empty): an insert at
// `steady` becomes an erase and an erase below it an insert. Without this
// the size drifted by ~3% over a run; and a size that crossed `steady`
// (2^16 for embed_mixed) grew capacities inside the structure in some runs
// but not others, moving memory per item by 57%.
inline Step Bind(Step s, const LivePool& pool, size_t steady) {
  if (s.kind == OpKind::kInsert && pool.size() >= steady) {
    s.kind = OpKind::kErase;
  } else if (s.kind == OpKind::kErase &&
             (pool.size() < steady || pool.size() <= 1)) {
    s.kind = OpKind::kInsert;
  }
  s.target = pool.size() == 0 ? 0 : s.target % pool.size();
  return s;
}

// The library call of a bound step and nothing else: what a latency sample
// times. Returns false when the call failed; an insert's new id goes to
// `*inserted`.
inline bool Call(dpss::Sampler* s, const Workload& w, const Step& step,
                 const LivePool& pool, std::vector<dpss::ItemId>* out,
                 dpss::ItemId* inserted) {
  switch (step.kind) {
    case OpKind::kSample:
      return s->SampleInto(w.alpha, w.beta, out).ok();
    case OpKind::kSetWeight:
      return s->SetWeight(pool.id(step.target), step.weight).ok();
    case OpKind::kInsert: {
      auto id = s->Insert(step.weight);
      if (!id.ok()) return false;
      *inserted = *id;
      return true;
    }
    case OpKind::kErase:
      return s->Erase(pool.id(step.target)).ok();
  }
  return false;
}

// Brings the pool up to date after a successful Call.
inline void Record(const Step& step, dpss::ItemId inserted, LivePool* pool) {
  switch (step.kind) {
    case OpKind::kSample:
      break;
    case OpKind::kSetWeight:
      pool->Set(step.target, step.weight);
      break;
    case OpKind::kInsert:
      pool->Add(inserted, step.weight);
      break;
    case OpKind::kErase:
      pool->Remove(step.target);
      break;
  }
}

// Call, then Record when the call succeeded.
inline bool Apply(dpss::Sampler* s, const Workload& w, const Step& step,
                  LivePool* pool, std::vector<dpss::ItemId>* out) {
  dpss::ItemId inserted = 0;
  if (!Call(s, w, step, *pool, out, &inserted)) return false;
  Record(step, inserted, pool);
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPROC_H_
