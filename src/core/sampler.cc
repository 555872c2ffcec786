// Sampler interface defaults, the backend registry, and the "halt" backend
// (the paper's HALT structure behind the interface). The baseline backends
// live in baseline/backends.cc; the registry pulls them in explicitly so a
// static link cannot drop their registrations.

#include "core/sampler.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "concurrent/sharded_sampler.h"
#include "core/dpss_sampler.h"
#include "core/halt.h"
#include "random/bernoulli.h"
#include "util/little_endian.h"

namespace dpss {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "kOk";
    case StatusCode::kInvalidId:
      return "kInvalidId";
    case StatusCode::kInvalidArgument:
      return "kInvalidArgument";
    case StatusCode::kWeightOverflow:
      return "kWeightOverflow";
    case StatusCode::kBadSnapshot:
      return "kBadSnapshot";
    case StatusCode::kUnsupported:
      return "kUnsupported";
    case StatusCode::kIoError:
      return "kIoError";
  }
  return "k?";
}

// --- Sampler defaults ----------------------------------------------------

Status Sampler::ValidateQueryArgs(Rational64 alpha, Rational64 beta,
                                  const void* out) {
  if (alpha.den == 0 || beta.den == 0) {
    return InvalidArgumentError("query parameter with zero denominator");
  }
  if (out == nullptr) {
    return InvalidArgumentError("null output pointer");
  }
  return Status::Ok();
}

Status Sampler::ValidateDenominator(const BigUInt& wden, const void* out) {
  if (wden.IsZero()) {
    return InvalidArgumentError("explicit denominator with zero wden");
  }
  if (out == nullptr) {
    return InvalidArgumentError("null output pointer");
  }
  return Status::Ok();
}

Status Sampler::InsertBatch(std::span<const uint64_t> weights,
                            std::vector<ItemId>* ids) {
  if (ids != nullptr) ids->reserve(ids->size() + weights.size());
  for (const uint64_t w : weights) {
    StatusOr<ItemId> id = Insert(w);
    if (!id.ok()) return id.status();
    if (ids != nullptr) ids->push_back(*id);
  }
  return Status::Ok();
}

Status Sampler::ApplyBatch(std::span<const Op> ops,
                           std::vector<ItemId>* inserted_ids,
                           size_t* num_applied) {
  if (num_applied != nullptr) *num_applied = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kInsert: {
        StatusOr<ItemId> id = InsertWeight(op.weight);
        if (!id.ok()) return id.status();
        if (inserted_ids != nullptr) inserted_ids->push_back(*id);
        break;
      }
      case Op::Kind::kErase: {
        Status st = Erase(op.id);
        if (!st.ok()) return st;
        break;
      }
      case Op::Kind::kSetWeight: {
        Status st = SetWeight(op.id, op.weight);
        if (!st.ok()) return st;
        break;
      }
      case Op::Kind::kDecay: {
        Status st = Decay(op.DecayFactor());
        if (!st.ok()) return st;
        break;
      }
      default:
        return InvalidArgumentError("malformed Op record");
    }
    if (num_applied != nullptr) ++*num_applied;
  }
  return Status::Ok();
}

StatusOr<std::vector<ItemId>> Sampler::Sample(Rational64 alpha,
                                              Rational64 beta) {
  std::vector<ItemId> out;
  Status st = SampleInto(alpha, beta, &out);
  if (!st.ok()) return st;
  return out;
}

Status Sampler::SampleIntoW(const BigUInt& /*wnum*/,
                            const BigUInt& /*wden*/, RandomEngine& /*rng*/,
                            std::vector<ItemId>* /*out*/) const {
  return UnsupportedError("backend has no explicit-denominator query");
}

StatusOr<double> Sampler::ExpectedSampleSize(Rational64 /*alpha*/,
                                             Rational64 /*beta*/) const {
  return UnsupportedError("backend does not compute expected sample sizes");
}

Status Sampler::ValidateDecayFactor(Rational64 factor) {
  if (factor.den == 0) {
    return InvalidArgumentError("decay factor with zero denominator");
  }
  if (factor.num == 0) {
    return InvalidArgumentError("decay factor must be positive");
  }
  if (factor.num > factor.den) {
    return InvalidArgumentError("decay factor must not exceed 1");
  }
  return Status::Ok();
}

Status Sampler::Decay(Rational64 factor) {
  if (!capabilities().decay) {
    return UnsupportedError("backend does not implement Decay");
  }
  Status st = ValidateDecayFactor(factor);
  if (!st.ok()) return st;
  if (factor.num == factor.den) return Status::Ok();
  std::vector<ItemRecord> items;
  st = DumpItems(&items);
  if (!st.ok()) return st;
  for (const ItemRecord& rec : items) {
    if (rec.weight.IsZero()) continue;
    st = SetWeight(rec.id,
                   FloorScaleWeight(rec.weight, factor.num, factor.den));
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status Sampler::SampleDistinct(uint64_t k, std::vector<ItemId>* out) {
  if (!capabilities().sample_distinct) {
    return UnsupportedError("backend does not implement SampleDistinct");
  }
  return GenericSampleDistinct(k, fallback_rng_, out);
}

Status Sampler::GenericSampleDistinct(uint64_t k, RandomEngine& rng,
                                      std::vector<ItemId>* out) {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  if (k == 0) return Status::Ok();

  // One WOR draw ∝ weight over the current (residual) item set. Two exact
  // sub-strategies, mixed by an outcome-independent rule so the mixture
  // stays exact:
  //
  //  * Singleton rejection over the backend's own (α, β) = (1, 0) query:
  //    P(output == {x}) = p_x·Π_{y≠x}(1 − p_y) with p_x = w_x/Σw. Accepting
  //    a singleton with one extra coin Ber(1 − p_x) multiplies that into
  //    p_x·Π_y(1 − p_y) — the x-independent product makes the accepted law
  //    exactly w_x/Σw. With (1, 0) no item is capped at p = 1 except when a
  //    single item carries all weight, which the round bound handles.
  //
  //  * Exact prefix-sum inversion over DumpItems: r uniform in [0, Σw),
  //    pick the item whose cumulative-weight interval contains r.
  //
  // Rejection is O(1 + μ) per round on "halt"-style backends; inversion is
  // the O(n) safety net after a fixed round budget (or immediately when the
  // backend cannot answer (1, 0) — a fixed-(α, β) baseline).
  auto draw_one = [&](const BigUInt& total,
                      std::vector<ItemId>* singleton,
                      std::vector<ItemRecord>* dump) -> StatusOr<ItemId> {
    const Rational64 kOne{1, 1}, kZero{0, 1};
    for (int round = 0; round < 16; ++round) {
      singleton->clear();
      Status qs = SampleInto(kOne, kZero, rng, singleton);
      if (!qs.ok()) {
        if (qs.code() == StatusCode::kUnsupported) break;
        return qs;
      }
      if (singleton->size() != 1) continue;
      StatusOr<Weight> w = GetWeight(singleton->front());
      if (!w.ok()) return w.status();
      const BigUInt wx = w->ToBigUInt();
      if (SampleBernoulliRational(total - wx, total, rng)) {
        return singleton->front();
      }
    }
    dump->clear();
    Status ds = DumpItems(dump);
    if (!ds.ok()) return ds;
    const BigUInt r = RandomBigBelow(total, rng);
    BigUInt cum;
    for (const ItemRecord& rec : *dump) {
      if (rec.weight.IsZero()) continue;
      cum = cum + rec.weight.ToBigUInt();
      if (r < cum) return rec.id;
    }
    return InvalidArgumentError("DumpItems disagrees with TotalWeight");
  };

  // Draw, park at weight 0 (so the next draw sees the residual set), and
  // restore every parked weight before returning — observably read-only
  // apart from the RNG state.
  std::vector<std::pair<ItemId, Weight>> parked;
  std::vector<ItemId> singleton;
  std::vector<ItemRecord> dump;
  Status st = Status::Ok();
  while (out->size() < k) {
    const BigUInt total = TotalWeight();
    if (total.IsZero()) break;
    StatusOr<ItemId> picked = draw_one(total, &singleton, &dump);
    if (!picked.ok()) {
      st = picked.status();
      break;
    }
    StatusOr<Weight> w = GetWeight(*picked);
    if (!w.ok()) {
      st = w.status();
      break;
    }
    Status ps = SetWeight(*picked, Weight());
    if (!ps.ok()) {
      st = ps;
      break;
    }
    parked.emplace_back(*picked, *w);
    out->push_back(*picked);
  }
  for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
    Status rs = SetWeight(it->first, it->second);
    if (st.ok() && !rs.ok()) st = rs;
  }
  if (!st.ok()) out->clear();
  return st;
}

Status Sampler::TopK(uint64_t k, std::vector<ItemId>* out) const {
  if (!capabilities().top_k) {
    return UnsupportedError("backend does not implement TopK/ItemsAbove");
  }
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  if (k == 0) return Status::Ok();
  std::vector<ItemRecord> items;
  Status st = DumpItems(&items);
  if (!st.ok()) return st;
  items.erase(std::remove_if(
                  items.begin(), items.end(),
                  [](const ItemRecord& r) { return r.weight.IsZero(); }),
              items.end());
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(k, items.size()));
  std::partial_sort(items.begin(), items.begin() + take, items.end(),
                    [](const ItemRecord& a, const ItemRecord& b) {
                      return CompareWeights(a.weight, b.weight) > 0;
                    });
  out->reserve(take);
  for (size_t i = 0; i < take; ++i) out->push_back(items[i].id);
  return Status::Ok();
}

Status Sampler::ItemsAbove(Weight threshold,
                           std::vector<ItemId>* out) const {
  if (!capabilities().top_k) {
    return UnsupportedError("backend does not implement TopK/ItemsAbove");
  }
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->clear();
  std::vector<ItemRecord> items;
  Status st = DumpItems(&items);
  if (!st.ok()) return st;
  for (const ItemRecord& rec : items) {
    if (rec.weight.IsZero()) continue;
    if (CompareWeights(rec.weight, threshold) >= 0) out->push_back(rec.id);
  }
  return Status::Ok();
}

Status Sampler::Serialize(std::string* /*out*/) const {
  return UnsupportedError("backend has no snapshot format");
}

Status Sampler::Restore(const std::string& /*bytes*/) {
  return UnsupportedError("backend has no snapshot format");
}

Status Sampler::DumpItems(std::vector<ItemRecord>* /*out*/) const {
  return UnsupportedError("backend cannot enumerate its items");
}

Status Sampler::CollectArenaImages(ArenaImageMode /*mode*/,
                                   std::vector<ArenaImage>* /*out*/) {
  return UnsupportedError("backend has no arena-image storage");
}

Status Sampler::RestoreFromArenas(std::vector<ArenaLoad>&& /*loads*/) {
  return UnsupportedError("backend has no arena-image storage");
}

// Sampler::SaveTo lives in persist/snapshot.cc next to the frame format it
// writes.

Status Sampler::CheckInvariants() const { return Status::Ok(); }

std::string Sampler::DebugString() const {
  return std::string(name()) + ": n=" + std::to_string(size()) +
         " total_weight=" + TotalWeight().ToDecimalString();
}

// --- "halt" backend ------------------------------------------------------

namespace {

// The full-featured backend: DpssSampler (paper Theorem 1.1) behind the
// interface. All validation that DpssSampler enforces with DPSS_CHECK at
// its concrete API boundary is performed here first and surfaced as Status.
//
// Lazy decay: Decay(factor) does not rewrite the stored weights — it folds
// into a pending rational factor f = dnum_/dden_ (gcd-reduced u64s,
// accumulated across calls). Observably:
//   * GetWeight / TotalWeight / DumpItems report FloorScaleWeight(stored,
//     f) — the same values an eager rewrite would produce;
//   * sampling applies f *exactly* (no flooring): p_x = stored_x·f / W
//     = stored_x / (W/f) for the true-unit total W = α·f·T + β, so
//     SampleInto samples the stored weights against W/f (ComputeStoredW)
//     and the explicit-denominator entry (SampleIntoW) rescales a
//     caller's W the same way; queries need no flush and stay O(1 + μ);
//   * Flush() materializes the floors into the stored weights. Since the
//     reported values are already the floored ones, a flush changes no
//     reported weight or total; the sampling law moves from the exact to
//     the floored weights. (The sharded wrapper does not use this lazy
//     path: it decays its shards eagerly, so each shard's stored weights
//     stay equal to the reported ones its global denominator is built
//     from.)
// Inserting or setting a *nonzero* weight under a pending factor flushes
// first (the new weight must not be scaled); parking at zero and erasing
// are scale-invariant and skip the flush.
class HaltBackend final : public Sampler {
 public:
  explicit HaltBackend(const SamplerSpec& spec)
      : options_{spec.seed, spec.deamortized_rebuild,
                 spec.migrate_per_update},
        sampler_(std::make_unique<DpssSampler>(options_)) {
    SeedFallbackRng(spec.seed);
  }

  const char* name() const override { return "halt"; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.parameterized = true;
    caps.float_weights = true;
    caps.snapshots = true;
    caps.deep_invariants = true;
    caps.expected_size = true;
    caps.decay = true;
    caps.sample_distinct = true;
    caps.top_k = true;
    return caps;
  }

  StatusOr<ItemId> Insert(uint64_t weight) override {
    if (weight != 0 && HasPendingDecay()) Flush();
    InvalidateTotalCache();
    return sampler_->Insert(weight);
  }

  StatusOr<ItemId> InsertWeight(Weight w) override {
    Status st = ValidateWeight(w);
    if (!st.ok()) return st;
    if (!w.IsZero() && HasPendingDecay()) Flush();
    InvalidateTotalCache();
    return sampler_->InsertWeight(w);
  }

  Status Erase(ItemId id) override {
    if (!sampler_->Contains(id)) return InvalidIdError();
    sampler_->Erase(id);
    InvalidateTotalCache();
    return Status::Ok();
  }

  Status SetWeight(ItemId id, Weight w) override {
    if (!sampler_->Contains(id)) return InvalidIdError();
    Status st = ValidateWeight(w);
    if (!st.ok()) return st;
    // Parking at zero commutes with any pending factor (0·f = 0); a
    // nonzero weight is given in post-decay units, so the factor must be
    // materialized before it lands.
    if (!w.IsZero() && HasPendingDecay()) Flush();
    sampler_->SetWeight(id, w);
    InvalidateTotalCache();
    return Status::Ok();
  }

  Status Decay(Rational64 factor) override {
    Status st = ValidateDecayFactor(factor);
    if (!st.ok()) return st;
    uint64_t fn = factor.num, fd = factor.den;
    const uint64_t g = std::gcd(fn, fd);
    fn /= g;
    fd /= g;
    if (fn == fd) return Status::Ok();
    // Fold into the pending factor, cross-reduced so the u64 products only
    // overflow when the reduced factor genuinely needs more than 64 bits —
    // then the current factor is materialized first and the new one fits
    // verbatim.
    const uint64_t g1 = std::gcd(dnum_, fd);
    const uint64_t g2 = std::gcd(fn, dden_);
    const uint64_t a = dnum_ / g1, d2 = fd / g1;
    const uint64_t n2 = fn / g2, b = dden_ / g2;
    if (a > UINT64_MAX / n2 || b > UINT64_MAX / d2) {
      Flush();
      dnum_ = fn;
      dden_ = fd;
    } else {
      dnum_ = a * n2;
      dden_ = b * d2;
    }
    InvalidateTotalCache();
    return Status::Ok();
  }

  bool Contains(ItemId id) const override { return sampler_->Contains(id); }

  StatusOr<Weight> GetWeight(ItemId id) const override {
    if (!sampler_->Contains(id)) return InvalidIdError();
    return Scaled(sampler_->GetWeight(id));
  }

  uint64_t size() const override { return sampler_->size(); }

  BigUInt TotalWeight() const override {
    if (!HasPendingDecay()) return sampler_->total_weight();
    if (!total_cache_valid_) {
      BigUInt sum;
      sampler_->ForEachItem([&](ItemId, Weight w) {
        const Weight s = Scaled(w);
        if (!s.IsZero()) sum = sum + s.ToBigUInt();
      });
      total_cache_ = std::move(sum);
      total_cache_valid_ = true;
    }
    return total_cache_;
  }

  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    return SampleInto(alpha, beta, sampler_->engine(), out);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    BigUInt wnum, wden;
    ComputeStoredW(alpha, beta, &wnum, &wden);
    sampler_->SampleIntoW(wnum, wden, rng, out);
    return Status::Ok();
  }

  // Stored weights are the true ones divided by the pending factor f, so
  // p_x = stored_x·f/W = stored_x/(W/f): a caller's true-unit W maps to
  // stored units as W·dden/dnum.
  Status SampleIntoW(const BigUInt& wnum, const BigUInt& wden,
                     RandomEngine& rng,
                     std::vector<ItemId>* out) const override {
    Status st = ValidateDenominator(wden, out);
    if (!st.ok()) return st;
    if (!HasPendingDecay()) {
      sampler_->SampleIntoW(wnum, wden, rng, out);
    } else {
      sampler_->SampleIntoW(BigUInt::MulU64(wnum, dden_),
                            BigUInt::MulU64(wden, dnum_), rng, out);
    }
    return Status::Ok();
  }

  StatusOr<double> ExpectedSampleSize(Rational64 alpha,
                                      Rational64 beta) const override {
    if (alpha.den == 0 || beta.den == 0) {
      return InvalidArgumentError("query parameter with zero denominator");
    }
    BigUInt wnum, wden;
    ComputeStoredW(alpha, beta, &wnum, &wden);
    return sampler_->ExpectedSampleSizeW(wnum, wden);
  }

  Status SampleDistinct(uint64_t k, std::vector<ItemId>* out) override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    out->clear();
    // Native WOR: one exact ∝-weight draw per item via the structure's
    // bucket walk, parking each drawn item at stored weight 0 so the next
    // draw sees the residual set, then restoring the stored weights. The
    // draws run on the *stored* weights, which under a pending factor f
    // are the true weights uniformly scaled by 1/f — proportional draws
    // are scale-invariant, and parking at 0 commutes with f, so no flush
    // is needed and the WOR law on the decayed weights is exact.
    std::vector<std::pair<ItemId, Weight>> parked;
    while (out->size() < k) {
      ItemId id = 0;
      if (!sampler_->SampleOne(fallback_rng(), &id)) break;
      const Weight w = sampler_->GetWeight(id);
      sampler_->SetWeight(id, Weight());
      parked.emplace_back(id, w);
      out->push_back(id);
    }
    for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
      sampler_->SetWeight(it->first, it->second);
    }
    InvalidateTotalCache();
    return Status::Ok();
  }

  Status TopK(uint64_t k, std::vector<ItemId>* out) const override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    out->clear();
    if (k == 0) return Status::Ok();
    std::vector<std::pair<ItemId, Weight>> top;
    if (!HasPendingDecay()) {
      sampler_->CollectTop(k, &top);
    } else {
      // Flooring does not preserve cross-exponent order (a heavier
      // mult·2^exp can floor below a lighter one), so under a pending
      // factor the bucket walk cannot rank — scan and sort the scaled
      // weights instead.
      CollectScaled(&top);
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(k, top.size()));
      std::partial_sort(top.begin(), top.begin() + take, top.end(),
                        [](const std::pair<ItemId, Weight>& a,
                           const std::pair<ItemId, Weight>& b) {
                          return CompareWeights(a.second, b.second) > 0;
                        });
      top.resize(take);
    }
    out->reserve(top.size());
    for (const auto& entry : top) out->push_back(entry.first);
    return Status::Ok();
  }

  Status ItemsAbove(Weight threshold,
                    std::vector<ItemId>* out) const override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    out->clear();
    std::vector<std::pair<ItemId, Weight>> hits;
    if (!HasPendingDecay()) {
      sampler_->CollectAtLeast(threshold, &hits);
      out->reserve(hits.size());
      for (const auto& entry : hits) out->push_back(entry.first);
    } else {
      sampler_->ForEachItem([&](ItemId id, Weight w) {
        const Weight s = Scaled(w);
        if (!s.IsZero() && CompareWeights(s, threshold) >= 0) {
          out->push_back(id);
        }
      });
    }
    return Status::Ok();
  }

  Status Serialize(std::string* out) const override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    // Decay envelope around the native DpssSampler snapshot: the pending
    // factor must survive a snapshot → crash → recover cycle so replayed
    // WAL suffixes observe the same weights the live run did. Written
    // only when a factor is actually pending — the common no-decay case
    // keeps the historical byte layout, so pinned pre-decay snapshots
    // round-trip bit-identically.
    if (HasPendingDecay()) {
      AppendU64(out, kDecayEnvelopeMagic);
      AppendU64(out, dnum_);
      AppendU64(out, dden_);
    }
    sampler_->Serialize(out);
    return Status::Ok();
  }

  Status Restore(const std::string& bytes) override {
    uint64_t dnum = 1, dden = 1;
    std::string inner_bytes;
    const std::string* payload = &bytes;
    size_t pos = 0;
    uint64_t magic = 0;
    if (ReadU64(bytes, &pos, &magic) && magic == kDecayEnvelopeMagic) {
      if (!ReadU64(bytes, &pos, &dnum) || !ReadU64(bytes, &pos, &dden) ||
          dnum == 0 || dden == 0 || dnum > dden) {
        return BadSnapshotError("corrupt decay envelope");
      }
      inner_bytes = bytes.substr(pos);
      payload = &inner_bytes;
    }
    // No envelope: a pre-decay snapshot — restore with no pending factor.
    auto fresh = std::make_unique<DpssSampler>(options_);
    Status st = DpssSampler::Deserialize(*payload, options_, fresh.get());
    if (!st.ok()) return st;
    sampler_ = std::move(fresh);
    const uint64_t g = std::gcd(dnum, dden);
    dnum_ = dnum / g;
    dden_ = dden / g;
    InvalidateTotalCache();
    return Status::Ok();
  }

  Status DumpItems(std::vector<ItemRecord>* out) const override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    out->reserve(out->size() + sampler_->size());
    sampler_->ForEachItem(
        [this, out](ItemId id, Weight w) { out->push_back({id, Scaled(w)}); });
    return Status::Ok();
  }

  Status CheckInvariants() const override {
    sampler_->CheckInvariants();
    DPSS_CHECK(dden_ >= 1 && dnum_ >= 1 && dnum_ <= dden_);
    return Status::Ok();
  }

  size_t ApproxMemoryBytes() const override {
    return sampler_->ApproxMemoryBytes() + sizeof(*this);
  }

  std::string DebugString() const override {
    std::string s = Sampler::DebugString() +
                    " level1_capacity=2^" +
                    std::to_string(sampler_->level1_log2_capacity()) +
                    " rebuilds=" + std::to_string(sampler_->rebuild_count());
    if (HasPendingDecay()) {
      s += " pending_decay=" + std::to_string(dnum_) + "/" +
           std::to_string(dden_);
    }
    return s;
  }

 private:
  // "DPSSDK01", little-endian; distinct from every DpssSampler snapshot
  // magic so envelope-less (pre-decay) snapshots are recognized.
  static constexpr uint64_t kDecayEnvelopeMagic = 0x31304B4453535044ULL;

  static Status ValidateWeight(Weight w) {
    if (w.IsZero()) return Status::Ok();
    if (w.exp >= static_cast<uint32_t>(kLevel1Universe) ||
        w.BucketIndex() >= kLevel1Universe) {
      return WeightOverflowError(
          "weight outside the level-1 universe (exp+log2(mult) >= 256)");
    }
    return Status::Ok();
  }

  bool HasPendingDecay() const { return dnum_ != 1 || dden_ != 1; }

  Weight Scaled(Weight w) const { return FloorScaleWeight(w, dnum_, dden_); }

  void InvalidateTotalCache() const { total_cache_valid_ = false; }

  // W = α·Σw + β in stored units. Under a pending factor f = dnum_/dden_
  // and stored total T that is W' = α·T + β/f: sampling the stored
  // weights against W' realizes p_x = min{stored_x·f / (α·f·T + β), 1},
  // the exact parameterized law on the exactly-scaled (unfloored) decayed
  // weights. All BigUInt, no overflow at any operand size:
  //   num = α.num·T·β.den·dnum + β.num·α.den·dden,  den = α.den·β.den·dnum.
  void ComputeStoredW(Rational64 alpha, Rational64 beta, BigUInt* num,
                      BigUInt* den) const {
    if (!HasPendingDecay()) {
      sampler_->ComputeW(alpha, beta, num, den);
      return;
    }
    const BigUInt term1 = BigUInt::MulU64(
        BigUInt::MulU64(
            BigUInt::MulU64(sampler_->total_weight(), alpha.num), beta.den),
        dnum_);
    const BigUInt term2 = BigUInt::MulU64(
        BigUInt::FromU128(static_cast<unsigned __int128>(beta.num) *
                          alpha.den),
        dden_);
    *num = term1 + term2;
    *den = BigUInt::MulU64(
        BigUInt::FromU128(static_cast<unsigned __int128>(alpha.den) *
                          beta.den),
        dnum_);
  }

  // Every live item with a nonzero scaled weight, as (id, scaled weight).
  void CollectScaled(std::vector<std::pair<ItemId, Weight>>* out) const {
    out->reserve(sampler_->size());
    sampler_->ForEachItem([&](ItemId id, Weight w) {
      const Weight s = Scaled(w);
      if (!s.IsZero()) out->emplace_back(id, s);
    });
  }

  // Materializes the pending factor: every stored weight becomes its
  // FloorScaleWeight image and the factor resets to 1. Reported weights
  // and totals are unchanged (they were already the floored values), so a
  // flush is observably a no-op.
  void Flush() {
    if (!HasPendingDecay()) return;
    // One pass over the *original* stored weights (a second pass would
    // re-scale already-rewritten entries): every nonzero stored weight
    // maps to its floored image, which may be zero (the item parks).
    std::vector<std::pair<ItemId, Weight>> rewrite;
    rewrite.reserve(sampler_->size());
    sampler_->ForEachItem([&](ItemId id, Weight w) {
      if (!w.IsZero()) rewrite.emplace_back(id, Scaled(w));
    });
    dnum_ = dden_ = 1;
    for (const auto& [id, w] : rewrite) sampler_->SetWeight(id, w);
    InvalidateTotalCache();
  }

  DpssSampler::Options options_;
  std::unique_ptr<DpssSampler> sampler_;
  // Pending decay factor, gcd-reduced; 1/1 = none.
  uint64_t dnum_ = 1;
  uint64_t dden_ = 1;
  // Cached Σ FloorScale(stored, pending); only consulted while a factor is
  // pending (the structure's own total is exact otherwise).
  mutable BigUInt total_cache_;
  mutable bool total_cache_valid_ = false;
};

StatusOr<std::unique_ptr<Sampler>> MakeHaltBackend(const SamplerSpec& spec) {
  if (spec.migrate_per_update < 1) {
    return InvalidArgumentError(
        "SamplerSpec::migrate_per_update must be >= 1");
  }
  if (spec.deamortized_rebuild && spec.migrate_per_update < 5) {
    // Contradictory: below 5 items per update a de-amortized migration
    // cannot be guaranteed to finish before the next size-doubling
    // threshold fires (see DpssSampler::Options).
    return InvalidArgumentError(
        "SamplerSpec::migrate_per_update must be >= 5 when "
        "deamortized_rebuild is set");
  }
  return StatusOr<std::unique_ptr<Sampler>>(
      std::make_unique<HaltBackend>(spec));
}

// Parses the sharding grammar "sharded[K]:<inner>". Returns true and fills
// *inner/*num_shards (-1 = no count in the name, take
// SamplerSpec::num_shards) when `name` uses the grammar; plain registry
// names return false.
bool ParseShardedName(const std::string& name, std::string* inner,
                      int* num_shards) {
  constexpr const char kPrefix[] = "sharded";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  size_t pos = kPrefixLen;
  long shards = 0;
  bool has_digits = false;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    has_digits = true;
    shards = shards * 10 + (name[pos] - '0');
    if (shards > ShardedSampler::kMaxShards) shards =
        ShardedSampler::kMaxShards + 1;  // out of range, rejected later
    ++pos;
  }
  if (pos >= name.size() || name[pos] != ':') return false;
  *inner = name.substr(pos + 1);
  *num_shards = has_digits ? static_cast<int>(shards) : -1;
  return true;
}

// --- Registry ------------------------------------------------------------

struct Registry {
  std::mutex mu;
  std::map<std::string, SamplerFactory> factories;
};

Registry& GetRegistry() {
  // The baseline backends are pulled in through this explicit call
  // (defined in baseline/backends.cc) rather than via per-TU static
  // initializers, which a static-library link would dead-strip.
  static Registry* registry = [] {
    auto* r = new Registry;
    r->factories["halt"] = &MakeHaltBackend;
    for (const auto& [name, factory] :
         internal_registry::BaselineBackends()) {
      r->factories.emplace(name, factory);
    }
    return r;
  }();
  return *registry;
}

}  // namespace

bool RegisterSampler(const std::string& name, SamplerFactory factory) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.factories.emplace(name, factory).second;
}

StatusOr<std::unique_ptr<Sampler>> MakeSamplerChecked(
    const std::string& name, const SamplerSpec& spec) {
  Registry& r = GetRegistry();
  SamplerFactory factory = nullptr;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.factories.find(name);
    if (it != r.factories.end()) factory = it->second;
  }
  if (factory != nullptr) return factory(spec);

  std::string inner;
  int num_shards = 0;
  if (ParseShardedName(name, &inner, &num_shards)) {
    return internal_registry::MakeShardedSampler(
        name, inner, num_shards < 0 ? spec.num_shards : num_shards, spec);
  }
  return InvalidArgumentError("unknown backend name");
}

std::unique_ptr<Sampler> MakeSampler(const std::string& name,
                                     const SamplerSpec& spec) {
  StatusOr<std::unique_ptr<Sampler>> s = MakeSamplerChecked(name, spec);
  if (!s.ok()) return nullptr;
  return std::move(*s);
}

std::vector<std::string> RegisteredSamplerNames() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& entry : r.factories) names.push_back(entry.first);
  return names;
}

}  // namespace dpss
