// ShardedSampler implementation. The exactness-critical piece is the
// query: shard s is sampled through its inner backend's explicit-
// denominator entry (Sampler::SampleIntoW) at the global parameterized
// total W'_s = α·(W_s + Σ_{t≠s} W̃_t) + β, where W_s is the shard's true
// total read under its lock and the other shards contribute their
// seqlock-published totals W̃_t. Each item is then included with
// probability min{w/W'_s, 1} directly, with no per-item correction; in a
// quiescent sampler the published totals equal the true totals and W'_s
// is exactly α·Σw + β for every shard. docs/CONCURRENCY.md has the
// argument under concurrent writes. Decay is eager in every shard, so the
// inners' stored weights are the reported ones the totals sum.

#include "concurrent/sharded_sampler.h"

#include <algorithm>
#include <mutex>
#include <tuple>
#include <utility>

#include "random/bernoulli.h"
#include "util/check.h"
#include "util/little_endian.h"

namespace dpss {

namespace {

// splitmix64 finalizer: decorrelates the per-shard seeds (and the
// per-shard query engines) derived from one user seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + (salt + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Why `inner_name` cannot be sharded (Status messages are static strings,
// hence one per built-in).
const char* UnshardableReason(const std::string& inner_name) {
  if (inner_name == "rebuild") {
    return "sharded[K]:rebuild: fixed (alpha, beta); shard halt or naive";
  }
  if (inner_name == "odss") {
    return "sharded[K]:odss: fixed (alpha, beta); shard halt or naive";
  }
  if (inner_name == "bucket_jump") {
    return "sharded[K]:bucket_jump: fixed (alpha, beta); shard halt or naive";
  }
  return "sharded[K]:sharded...: a sharded wrapper cannot be sharded again";
}

}  // namespace

StatusOr<std::unique_ptr<Sampler>> ShardedSampler::Create(
    const std::string& registry_key, const std::string& inner_name,
    int num_shards, const SamplerSpec& spec) {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return InvalidArgumentError(
        "SamplerSpec::num_shards must be in [1, 4096]");
  }
  std::unique_ptr<ShardedSampler> s(
      new ShardedSampler(registry_key, inner_name, num_shards, spec));
  for (int i = 0; i < num_shards; ++i) {
    SamplerSpec inner_spec = spec;
    inner_spec.seed = MixSeed(spec.seed, static_cast<uint64_t>(i));
    StatusOr<std::unique_ptr<Sampler>> inner =
        MakeSamplerChecked(inner_name, inner_spec);
    if (!inner.ok()) return inner.status();
    s->shards_[i].inner = std::move(*inner);
    s->shards_[i].rng.Seed(
        MixSeed(spec.seed, static_cast<uint64_t>(i) + 0x51ab1eULL));
  }
  // Every shard is sampled at the global denominator through the inner
  // backend's explicit-denominator query, so probe it once on the
  // still-empty first shard: an inner without one is rejected here, not at
  // the first query.
  std::vector<ItemId> probe;
  RandomEngine probe_rng(0);
  if (!s->shards_[0]
           .inner->SampleIntoW(BigUInt(1), BigUInt(1), probe_rng, &probe)
           .ok()) {
    return InvalidArgumentError(UnshardableReason(inner_name));
  }
  s->caps_ = s->shards_[0].inner->capabilities();
  // Snapshots — like decay, sample_distinct and top_k — follow the inner
  // backend (the overrides below forward per shard). Expected-size would
  // need a frozen cross-shard cut per query and stays off (documented
  // non-goal).
  s->caps_.expected_size = false;
  // Every shard is sampled under its own exclusive lock, so callers may
  // query from many threads at once.
  s->caps_.concurrent_queries = true;
  return StatusOr<std::unique_ptr<Sampler>>(std::move(s));
}

ShardedSampler::ShardedSampler(std::string registry_key,
                               std::string inner_name, int num_shards,
                               const SamplerSpec& spec)
    : key_(std::move(registry_key)),
      inner_name_(std::move(inner_name)),
      spec_(spec),
      num_shards_(static_cast<uint64_t>(num_shards)),
      shards_(static_cast<size_t>(num_shards)) {
  // Drives the cross-shard SampleDistinct coins (the per-shard engines
  // are reserved for SampleInto drains).
  SeedFallbackRng(spec.seed);
}

const char* ShardedSampler::name() const { return key_.c_str(); }

Sampler::Capabilities ShardedSampler::capabilities() const { return caps_; }

uint64_t ShardedSampler::PickShard() const {
  uint64_t best = 0;
  uint64_t best_count =
      shards_[0].live_count.load(std::memory_order_relaxed);
  for (uint64_t s = 1; s < num_shards_; ++s) {
    const uint64_t c = shards_[s].live_count.load(std::memory_order_relaxed);
    if (c < best_count) {
      best = s;
      best_count = c;
    }
  }
  return best;
}

void ShardedSampler::DecodeId(ItemId id, uint64_t* shard,
                              ItemId* inner_id) const {
  const uint64_t slot = SlotIndexOf(id);
  *shard = slot % num_shards_;
  *inner_id = MakeItemId(slot / num_shards_, GenerationOf(id));
}

ItemId ShardedSampler::TranslateOut(uint64_t shard, ItemId inner_id) const {
  const uint64_t inner_slot = SlotIndexOf(inner_id);
  // The global slot space is K-way interleaved; running out would need
  // ~2^40 / K live slots in one shard.
  DPSS_CHECK(inner_slot <= (kIdSlotMask - shard) / num_shards_);
  return MakeItemId(inner_slot * num_shards_ + shard,
                    GenerationOf(inner_id));
}

// --- Published totals (single-writer seqlock) ----------------------------
//
// The writer holds the shard's exclusive lock, so there is exactly one
// publisher at a time. All accesses are atomic with acquire/release pairs
// (no fences), which both the C++ memory model and TSan reason about
// directly: the release data stores keep the odd seq visible before any
// torn value, and the acquire data loads keep the re-check of seq after
// the reads.

void ShardedSampler::PublishTotalLocked(Shard& shard) {
  const uint64_t s0 = shard.pub_seq.load(std::memory_order_relaxed);
  shard.pub_seq.store(s0 + 1, std::memory_order_relaxed);
  if (shard.total.FitsU128()) {
    const unsigned __int128 v = shard.total.ToU128();
    shard.pub_lo.store(static_cast<uint64_t>(v),
                       std::memory_order_release);
    shard.pub_hi.store(static_cast<uint64_t>(v >> 64),
                       std::memory_order_release);
    shard.pub_big.store(false, std::memory_order_release);
  } else {
    shard.pub_big.store(true, std::memory_order_release);
  }
  shard.pub_seq.store(s0 + 2, std::memory_order_release);
}

BigUInt ShardedSampler::ReadShardTotal(const Shard& shard) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint64_t s0 = shard.pub_seq.load(std::memory_order_acquire);
    if ((s0 & 1) != 0) continue;
    const uint64_t lo = shard.pub_lo.load(std::memory_order_acquire);
    const uint64_t hi = shard.pub_hi.load(std::memory_order_acquire);
    const bool big = shard.pub_big.load(std::memory_order_acquire);
    if (shard.pub_seq.load(std::memory_order_relaxed) != s0) continue;
    if (big) break;  // float-weight regime: take the lock below
    return BigUInt::FromU128(
        (static_cast<unsigned __int128>(hi) << 64) | lo);
  }
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.total;
}

// --- Mutations -----------------------------------------------------------

StatusOr<ItemId> ShardedSampler::Insert(uint64_t weight) {
  const uint64_t s = PickShard();
  Shard& shard = shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  StatusOr<ItemId> id = shard.inner->Insert(weight);
  if (!id.ok()) return id;
  shard.total = shard.total + BigUInt(weight);
  PublishTotalLocked(shard);
  shard.live_count.fetch_add(1, std::memory_order_relaxed);
  return TranslateOut(s, *id);
}

StatusOr<ItemId> ShardedSampler::InsertWeight(Weight w) {
  const uint64_t s = PickShard();
  Shard& shard = shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  StatusOr<ItemId> id = shard.inner->InsertWeight(w);
  if (!id.ok()) return id;
  shard.total = shard.total + w.ToBigUInt();
  PublishTotalLocked(shard);
  shard.live_count.fetch_add(1, std::memory_order_relaxed);
  return TranslateOut(s, *id);
}

Status ShardedSampler::Erase(ItemId id) {
  uint64_t s = 0;
  ItemId inner_id = 0;
  DecodeId(id, &s, &inner_id);
  Shard& shard = shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const StatusOr<Weight> old = shard.inner->GetWeight(inner_id);
  if (!old.ok()) return old.status();
  const Status st = shard.inner->Erase(inner_id);
  if (!st.ok()) return st;
  shard.total = shard.total - old->ToBigUInt();
  PublishTotalLocked(shard);
  shard.live_count.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardedSampler::SetWeight(ItemId id, Weight w) {
  uint64_t s = 0;
  ItemId inner_id = 0;
  DecodeId(id, &s, &inner_id);
  Shard& shard = shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const StatusOr<Weight> old = shard.inner->GetWeight(inner_id);
  if (!old.ok()) return old.status();
  const Status st = shard.inner->SetWeight(inner_id, w);
  if (!st.ok()) return st;
  // Unsigned arithmetic: add the new weight first so the intermediate
  // value stays >= the old contribution being subtracted.
  shard.total = (shard.total + w.ToBigUInt()) - old->ToBigUInt();
  PublishTotalLocked(shard);
  return Status::Ok();
}

// --- Accessors -----------------------------------------------------------

bool ShardedSampler::Contains(ItemId id) const {
  uint64_t s = 0;
  ItemId inner_id = 0;
  DecodeId(id, &s, &inner_id);
  std::shared_lock<std::shared_mutex> lock(shards_[s].mu);
  return shards_[s].inner->Contains(inner_id);
}

StatusOr<Weight> ShardedSampler::GetWeight(ItemId id) const {
  uint64_t s = 0;
  ItemId inner_id = 0;
  DecodeId(id, &s, &inner_id);
  std::shared_lock<std::shared_mutex> lock(shards_[s].mu);
  return shards_[s].inner->GetWeight(inner_id);
}

uint64_t ShardedSampler::size() const {
  uint64_t n = 0;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    n += shards_[s].live_count.load(std::memory_order_relaxed);
  }
  return n;
}

BigUInt ShardedSampler::TotalWeight() const {
  BigUInt total;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::shared_lock<std::shared_mutex> lock(shards_[s].mu);
    total = total + shards_[s].total;
  }
  return total;
}

// --- Queries -------------------------------------------------------------

Status ShardedSampler::DrainShard(uint64_t s, const BigUInt& rest,
                                  Rational64 alpha, Rational64 beta,
                                  RandomEngine* rng,
                                  std::vector<ItemId>* out) const {
  Shard& shard = shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  // W'_s = α·(W_s + rest) + β, with W_s the shard's true total under this
  // lock and `rest` the other shards' published totals.
  BigUInt wnum, wden;
  ParameterizedTotal(shard.total + rest, alpha, beta, &wnum, &wden);
  // The shard's staging buffer is ours while we hold its lock, so a
  // warmed-up drain allocates nothing.
  std::vector<ItemId>& buf = shard.query_buf;
  const Status st = shard.inner->SampleIntoW(
      wnum, wden, rng != nullptr ? *rng : shard.rng, &buf);
  if (!st.ok()) return st;
  for (const ItemId inner_id : buf) out->push_back(TranslateOut(s, inner_id));
  return Status::Ok();
}

Status ShardedSampler::Query(Rational64 alpha, Rational64 beta,
                             RandomEngine* rng,
                             std::vector<ItemId>* out) const {
  Status st = ValidateQueryArgs(alpha, beta, out);
  if (!st.ok()) return st;
  out->clear();

  // Per-thread staging for the observed totals: a thread runs one wrapper
  // query at a time (wrappers do not nest), so a warmed-up query allocates
  // nothing here.
  thread_local std::vector<BigUInt> observed;
  observed.resize(num_shards_);
  BigUInt global_total;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    observed[s] = ReadShardTotal(shards_[s]);
    global_total = global_total + observed[s];
  }

  // A caller-owned engine fixes the visiting order (the deterministic
  // variant); otherwise the start rotates so concurrent queries pipeline
  // across the shards instead of convoying behind one another.
  const uint64_t start =
      rng != nullptr
          ? 0
          : query_offset_.fetch_add(1, std::memory_order_relaxed) %
                num_shards_;

  for (uint64_t i = 0; i < num_shards_; ++i) {
    const uint64_t s = (start + i) % num_shards_;
    st = DrainShard(s, global_total - observed[s], alpha, beta, rng, out);
    if (!st.ok()) {
      out->clear();
      return st;
    }
  }
  return Status::Ok();
}

Status ShardedSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  std::vector<ItemId>* out) {
  return Query(alpha, beta, nullptr, out);
}

Status ShardedSampler::SampleInto(Rational64 alpha, Rational64 beta,
                                  RandomEngine& rng,
                                  std::vector<ItemId>* out) const {
  return Query(alpha, beta, &rng, out);
}

// --- Decay / distinct draws / ranked reads -------------------------------

Status ShardedSampler::Decay(Rational64 factor) {
  if (!caps_.decay) {
    return UnsupportedError("inner backend does not support Decay");
  }
  Status st = ValidateDecayFactor(factor);
  if (!st.ok()) return st;
  if (factor.num == factor.den) return Status::Ok();
  for (uint64_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    // The base class's eager rewrite: "halt"'s own Decay would leave the
    // factor pending and sample unfloored weights against the floored
    // totals the global denominator is built from.
    st = shard.inner->Sampler::Decay(factor);
    if (!st.ok()) return st;  // shards [0, s) keep their decayed weights
    // Re-derive rather than scale the cached copy: the rewrite floors per
    // item, and the cached total must mirror inner TotalWeight()
    // bit-exactly for CheckInvariants.
    shard.total = shard.inner->TotalWeight();
    PublishTotalLocked(shard);
  }
  return Status::Ok();
}

Status ShardedSampler::SampleDistinct(uint64_t k,
                                      std::vector<ItemId>* out) {
  if (!caps_.sample_distinct) {
    return UnsupportedError("inner backend does not support SampleDistinct");
  }
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  if (k == 0) return Status::Ok();

  // Without-replacement draws couple the shards through the already-drawn
  // items, so the whole call runs under every shard's exclusive lock — the
  // one place shard locks nest; index order keeps acquisition globally
  // consistent (no other path holds two shard locks at once).
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(num_shards_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    locks.emplace_back(shards_[s].mu);
  }

  std::vector<BigUInt> totals(num_shards_);
  BigUInt grand;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    totals[s] = shards_[s].inner->TotalWeight();
    grand = grand + totals[s];
  }

  // Each round: pick the owning shard with probability T_s/T, then let the
  // shard draw one distinct item with its inner law w_x/T_s — the product
  // is exactly w_x/T, the single-structure without-replacement marginal
  // (the shards' stored weights are their reported ones, see Decay). The
  // drawn item is parked at weight zero so later rounds exclude it;
  // parking is scale-invariant, so the shards' cached totals need no
  // republish.
  std::vector<std::tuple<uint64_t, ItemId, Weight>> parked;
  parked.reserve(static_cast<size_t>(k));
  Status st = Status::Ok();
  RandomEngine& rng = fallback_rng();
  while (out->size() < k && !grand.IsZero()) {
    const BigUInt r = RandomBigBelow(grand, rng);
    uint64_t s = 0;
    BigUInt cum;
    for (; s < num_shards_; ++s) {
      cum = cum + totals[s];
      if (r < cum) break;
    }
    DPSS_CHECK(s < num_shards_);  // r < grand = Σ totals
    Shard& shard = shards_[s];
    std::vector<ItemId>& one = shard.query_buf;
    st = shard.inner->SampleDistinct(1, &one);
    if (!st.ok()) break;
    if (one.empty()) {
      st = InvalidArgumentError("shard total disagrees with its items");
      break;
    }
    const ItemId inner_id = one[0];
    const StatusOr<Weight> w = shard.inner->GetWeight(inner_id);
    DPSS_CHECK(w.ok());  // drawn under this lock, so necessarily live
    out->push_back(TranslateOut(s, inner_id));
    parked.emplace_back(s, inner_id, *w);
    st = shard.inner->SetWeight(inner_id, Weight());
    if (!st.ok()) break;
    totals[s] = totals[s] - w->ToBigUInt();
    grand = grand - w->ToBigUInt();
  }

  // Restore in reverse draw order; observable weights end exactly where
  // they started, so the published totals were never stale.
  for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
    const Status restore =
        shards_[std::get<0>(*it)].inner->SetWeight(std::get<1>(*it),
                                                   std::get<2>(*it));
    DPSS_CHECK(restore.ok());
  }
  if (!st.ok()) out->clear();
  return st;
}

Status ShardedSampler::TopK(uint64_t k, std::vector<ItemId>* out) const {
  if (!caps_.top_k) {
    return UnsupportedError("inner backend does not support TopK");
  }
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  if (k == 0) return Status::Ok();
  // The global top-k is a subset of the union of per-shard top-k lists,
  // so each shard reports k candidates and one merge keeps the heaviest.
  std::vector<std::pair<ItemId, Weight>> merged;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    std::vector<ItemId> ids;
    Status st = shard.inner->TopK(k, &ids);
    if (!st.ok()) return st;
    merged.reserve(merged.size() + ids.size());
    for (const ItemId inner_id : ids) {
      const StatusOr<Weight> w = shard.inner->GetWeight(inner_id);
      DPSS_CHECK(w.ok());  // reported under this lock, so necessarily live
      merged.emplace_back(TranslateOut(s, inner_id), *w);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<ItemId, Weight>& a,
               const std::pair<ItemId, Weight>& b) {
              return CompareWeights(a.second, b.second) > 0;
            });
  if (merged.size() > k) merged.resize(static_cast<size_t>(k));
  out->reserve(merged.size());
  for (const std::pair<ItemId, Weight>& entry : merged) {
    out->push_back(entry.first);
  }
  return Status::Ok();
}

Status ShardedSampler::ItemsAbove(Weight threshold,
                                  std::vector<ItemId>* out) const {
  if (!caps_.top_k) {
    return UnsupportedError("inner backend does not support ItemsAbove");
  }
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  for (uint64_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    std::vector<ItemId> ids;
    Status st = shard.inner->ItemsAbove(threshold, &ids);
    if (!st.ok()) return st;
    out->reserve(out->size() + ids.size());
    for (const ItemId inner_id : ids) {
      out->push_back(TranslateOut(s, inner_id));
    }
  }
  return Status::Ok();
}

// --- Snapshots -----------------------------------------------------------

namespace {

// Sharded snapshot section header magic: the ASCII bytes "DPSSSHD1".
constexpr uint64_t kShardedMagic = 0x3144485353535044ULL;

}  // namespace

Status ShardedSampler::Serialize(std::string* out) const {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  if (!caps_.snapshots) {
    return UnsupportedError("inner backend has no snapshot format");
  }
  AppendU64(out, kShardedMagic);
  AppendU64(out, num_shards_);
  AppendU16(out, static_cast<uint16_t>(inner_name_.size()));
  out->append(inner_name_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    // Exclusive, not shared: Serialize is const but some inner backends'
    // const methods touch scratch state (the library-wide caveat).
    std::unique_lock<std::shared_mutex> lock(shards_[s].mu);
    std::string section;
    Status st = shards_[s].inner->Serialize(&section);
    if (!st.ok()) return st;
    AppendU64(out, section.size());
    out->append(section);
  }
  return Status::Ok();
}

Status ShardedSampler::Restore(const std::string& bytes) {
  if (!caps_.snapshots) {
    return UnsupportedError("inner backend has no snapshot format");
  }
  size_t pos = 0;
  uint64_t magic = 0, shard_count = 0;
  uint16_t name_len = 0;
  if (!ReadU64(bytes, &pos, &magic) || magic != kShardedMagic) {
    return BadSnapshotError("bad magic / not a sharded snapshot");
  }
  if (!ReadU64(bytes, &pos, &shard_count) ||
      shard_count != num_shards_) {
    return BadSnapshotError("snapshot was taken with a different shard count");
  }
  if (!ReadU16(bytes, &pos, &name_len) ||
      pos + name_len > bytes.size() ||
      bytes.compare(pos, name_len, inner_name_) != 0) {
    return BadSnapshotError(
        "snapshot was taken with a different inner backend");
  }
  pos += name_len;

  // Build every replacement shard before touching any live one, so a
  // corrupt section leaves the current state fully intact.
  std::vector<std::unique_ptr<Sampler>> fresh(num_shards_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    uint64_t len = 0;
    if (!ReadU64(bytes, &pos, &len) ||
        len > bytes.size() - pos) {
      return BadSnapshotError("truncated shard section");
    }
    SamplerSpec inner_spec = spec_;
    inner_spec.seed = MixSeed(spec_.seed, s);
    StatusOr<std::unique_ptr<Sampler>> inner =
        MakeSamplerChecked(inner_name_, inner_spec);
    if (!inner.ok()) return inner.status();
    Status st = (*inner)->Restore(bytes.substr(pos, len));
    if (!st.ok()) return st;
    // A "halt" section with a pending decay factor (envelope "DPSSDK01",
    // written before Decay was eager here): setting every item to its
    // reported weight materializes the floors.
    if (bytes.compare(pos, 8, "DPSSDK01") == 0) {
      std::vector<ItemRecord> items;
      st = (*inner)->DumpItems(&items);
      for (size_t i = 0; st.ok() && i < items.size(); ++i) {
        st = (*inner)->SetWeight(items[i].id, items[i].weight);
      }
      if (!st.ok()) return st;
    }
    pos += len;
    fresh[s] = std::move(*inner);
  }
  if (pos != bytes.size()) {
    return BadSnapshotError("trailing bytes after the last shard section");
  }

  for (uint64_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.inner = std::move(fresh[s]);
    shard.total = shard.inner->TotalWeight();
    shard.live_count.store(shard.inner->size(), std::memory_order_relaxed);
    PublishTotalLocked(shard);
  }
  return Status::Ok();
}

Status ShardedSampler::CollectArenaImages(ArenaImageMode mode,
                                          std::vector<ArenaImage>* out) {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  if (!caps_.arena_image) {
    return UnsupportedError("inner backend has no arena-image storage");
  }
  std::vector<ArenaImage> images;
  size_t per_shard = 0;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::unique_lock<std::shared_mutex> lock(shards_[s].mu);
    const size_t before = images.size();
    Status st = shards_[s].inner->CollectArenaImages(mode, &images);
    if (!st.ok()) return st;
    const size_t count = images.size() - before;
    if (s == 0) {
      per_shard = count;
    } else if (count != per_shard) {
      // The on-disk layout infers the shard split from position alone, so
      // ragged counts would be unrecoverable.
      return BadSnapshotError("shards produced unequal arena image counts");
    }
  }
  out->insert(out->end(), std::make_move_iterator(images.begin()),
              std::make_move_iterator(images.end()));
  return Status::Ok();
}

Status ShardedSampler::RestoreFromArenas(std::vector<ArenaLoad>&& loads) {
  if (!caps_.arena_image) {
    return UnsupportedError("inner backend has no arena-image storage");
  }
  if (loads.empty() || loads.size() % num_shards_ != 0) {
    return BadSnapshotError(
        "arena image count is not a multiple of the shard count");
  }
  const size_t per_shard = loads.size() / num_shards_;

  // Build every replacement shard before touching any live one, mirroring
  // Restore: a bad image leaves the current state fully intact.
  std::vector<std::unique_ptr<Sampler>> fresh(num_shards_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    SamplerSpec inner_spec = spec_;
    inner_spec.seed = MixSeed(spec_.seed, s);
    StatusOr<std::unique_ptr<Sampler>> inner =
        MakeSamplerChecked(inner_name_, inner_spec);
    if (!inner.ok()) return inner.status();
    std::vector<ArenaLoad> shard_loads;
    shard_loads.reserve(per_shard);
    for (size_t i = 0; i < per_shard; ++i) {
      shard_loads.push_back(std::move(loads[s * per_shard + i]));
    }
    Status st = (*inner)->RestoreFromArenas(std::move(shard_loads));
    if (!st.ok()) return st;
    fresh[s] = std::move(*inner);
  }

  for (uint64_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.inner = std::move(fresh[s]);
    shard.total = shard.inner->TotalWeight();
    shard.live_count.store(shard.inner->size(), std::memory_order_relaxed);
    PublishTotalLocked(shard);
  }
  return Status::Ok();
}

Status ShardedSampler::DumpItems(std::vector<ItemRecord>* out) const {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::unique_lock<std::shared_mutex> lock(shards_[s].mu);
    std::vector<ItemRecord> inner_items;
    Status st = shards_[s].inner->DumpItems(&inner_items);
    if (!st.ok()) return st;
    out->reserve(out->size() + inner_items.size());
    for (const ItemRecord& rec : inner_items) {
      out->push_back({TranslateOut(s, rec.id), rec.weight});
    }
  }
  return Status::Ok();
}

// --- Diagnostics ---------------------------------------------------------

std::vector<ShardedSampler::ShardStats> ShardedSampler::ShardOccupancy()
    const {
  std::vector<ShardStats> rows(num_shards_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    rows[s].live = shard.live_count.load(std::memory_order_relaxed);
    rows[s].total_weight_big =
        shard.pub_big.load(std::memory_order_relaxed);
    // ReadShardTotal serves the common (≤128-bit) regime lock-free from
    // the seqlock and takes a brief reader lock only for big totals.
    rows[s].total_weight_double = ReadShardTotal(shard).ToDouble();
  }
  return rows;
}

Status ShardedSampler::CheckInvariants() const {
  for (uint64_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    const Status st = shard.inner->CheckInvariants();
    if (!st.ok()) return st;
    // Wrapper bookkeeping: cached totals and live counters must mirror the
    // inner structures exactly; a mismatch is an internal invariant
    // violation, not caller misuse.
    DPSS_CHECK(shard.inner->TotalWeight() == shard.total);
    DPSS_CHECK(shard.inner->size() ==
               shard.live_count.load(std::memory_order_relaxed));
    if (!shard.pub_big.load(std::memory_order_relaxed)) {
      DPSS_CHECK(shard.total.FitsU128());
      const unsigned __int128 published =
          (static_cast<unsigned __int128>(
               shard.pub_hi.load(std::memory_order_relaxed))
           << 64) |
          shard.pub_lo.load(std::memory_order_relaxed);
      DPSS_CHECK(published == shard.total.ToU128());
    }
  }
  return Status::Ok();
}

size_t ShardedSampler::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + num_shards_ * sizeof(Shard);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::shared_lock<std::shared_mutex> lock(shards_[s].mu);
    bytes += shards_[s].inner->ApproxMemoryBytes();
  }
  return bytes;
}

std::string ShardedSampler::DebugString() const {
  return Sampler::DebugString() + " shards=" + std::to_string(num_shards_);
}

namespace internal_registry {

StatusOr<std::unique_ptr<Sampler>> MakeShardedSampler(
    const std::string& registry_key, const std::string& inner_name,
    int num_shards, const SamplerSpec& spec) {
  return ShardedSampler::Create(registry_key, inner_name, num_shards, spec);
}

}  // namespace internal_registry

}  // namespace dpss
