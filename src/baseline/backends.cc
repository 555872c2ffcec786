// The baseline sampler backends behind the dpss::Sampler interface:
//
//   "naive"       — NaiveDpss: O(n) per query, parameterized (α, β).
//   "rebuild"     — RebuildDpss: fixed (α, β), eager Ω(n) rebuild on every
//                   mutation (the paper's §1 motivation made concrete).
//   "bucket_jump" — BucketJumpSampler with a *lazy* rebuild: mutations are
//                   O(1) and dirty the structure; the next query pays one
//                   Ω(n) reconstruction. Batching mutations therefore
//                   amortizes to one rebuild per batch — the batch-friendly
//                   cousin of "rebuild".
//   "odss"        — OdssSampler (Yi et al.-style DSS): each mutation
//                   changes Σw and hence every item's probability, so the
//                   adapter refreshes all n probabilities per mutation;
//                   ApplyBatch defers the refresh to once per batch.
//
// All four enforce the interface contract themselves (Status on misuse,
// generation-checked ids via core/item_id.h) and only answer queries for
// the SamplerSpec's fixed (α, β) unless parameterized. Only "naive"
// persists: the three fixed-(α, β) comparators are in-memory only (no
// snapshots, so RecoveryManager::Open rejects them, and Server::Start
// rejects them as unparameterized).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bucket_jump.h"
#include "baseline/flat_table.h"
#include "baseline/naive_dpss.h"
#include "baseline/odss.h"
#include "baseline/rebuild_dpss.h"
#include "bigint/big_uint.h"
#include "core/sampler.h"
#include "util/bits.h"

namespace dpss {
namespace {

// Exact equality of two non-negative rationals by cross-multiplication.
bool SameRational(Rational64 a, Rational64 b) {
  return static_cast<unsigned __int128>(a.num) * b.den ==
         static_cast<unsigned __int128>(b.num) * a.den;
}

// The integer-only backends store plain 64-bit weights; a float weight
// mult·2^exp is accepted exactly when its value fits a word.
Status WeightToU64(Weight w, uint64_t* out) {
  if (w.IsZero()) {
    *out = 0;
    return Status::Ok();
  }
  if (w.exp >= 64 ||
      BitLength(w.mult) + static_cast<int>(w.exp) > 64) {
    return WeightOverflowError(
        "integer-weight backend: mult*2^exp must fit 64 bits");
  }
  *out = w.mult << w.exp;
  return Status::Ok();
}

Status CheckFixedParams(Rational64 alpha, Rational64 beta,
                        Rational64 fixed_alpha, Rational64 fixed_beta) {
  if (!SameRational(alpha, fixed_alpha) || !SameRational(beta, fixed_beta)) {
    return UnsupportedError(
        "fixed-(alpha,beta) backend: query parameters must equal the "
        "SamplerSpec's fixed_alpha/fixed_beta");
  }
  return Status::Ok();
}

// Shared DumpItems over a FlatTable: live items in slot order.
Status DumpFlatTable(const FlatTable& t, std::vector<ItemRecord>* out) {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  out->reserve(out->size() + t.count);
  for (uint64_t slot = 0; slot < t.weights.size(); ++slot) {
    if (!t.live[slot]) continue;
    out->push_back(
        {MakeItemId(slot, t.gens[slot]), Weight::FromU64(t.weights[slot])});
  }
  return Status::Ok();
}

// --- "naive" -------------------------------------------------------------

class NaiveBackend final : public Sampler {
 public:
  explicit NaiveBackend(const SamplerSpec& spec)
      : rng_(spec.seed) {
    SeedFallbackRng(spec.seed);
  }

  const char* name() const override { return "naive"; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.parameterized = true;
    caps.snapshots = true;
    caps.arena_image = true;
    caps.decay = true;          // generic O(n) weight rewrite
    caps.sample_distinct = true;  // generic exact WOR engine
    caps.top_k = true;          // generic dump-and-rank
    return caps;
  }

  StatusOr<ItemId> Insert(uint64_t weight) override {
    return naive_.Insert(weight);
  }

  StatusOr<ItemId> InsertWeight(Weight w) override {
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    return naive_.Insert(value);
  }

  Status Erase(ItemId id) override {
    if (!naive_.Contains(id)) return InvalidIdError();
    naive_.Erase(id);
    return Status::Ok();
  }

  Status SetWeight(ItemId id, Weight w) override {
    if (!naive_.Contains(id)) return InvalidIdError();
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    naive_.SetWeight(id, value);
    return Status::Ok();
  }

  bool Contains(ItemId id) const override { return naive_.Contains(id); }

  StatusOr<Weight> GetWeight(ItemId id) const override {
    if (!naive_.Contains(id)) return InvalidIdError();
    return Weight::FromU64(naive_.GetWeight(id));
  }

  uint64_t size() const override { return naive_.size(); }

  BigUInt TotalWeight() const override {
    return BigUInt::FromU128(naive_.total_weight());
  }

  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    return SampleInto(alpha, beta, rng_, out);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    BigUInt wnum, wden;
    ParameterizedTotal(TotalWeight(), alpha, beta, &wnum, &wden);
    return SampleIntoW(wnum, wden, rng, out);
  }

  Status SampleIntoW(const BigUInt& wnum, const BigUInt& wden,
                     RandomEngine& rng,
                     std::vector<ItemId>* out) const override {
    Status st = ValidateDenominator(wden, out);
    if (!st.ok()) return st;
    *out = naive_.SampleW(wnum, wden, rng);
    return Status::Ok();
  }

  Status Serialize(std::string* out) const override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    SerializeFlatTable(naive_.table(), out);
    return Status::Ok();
  }

  Status Restore(const std::string& bytes) override {
    FlatTable t;
    Status st = DeserializeFlatTable(bytes, &t);
    if (!st.ok()) return st;
    naive_.RestoreTable(std::move(t));
    return Status::Ok();
  }

  // The whole item state lives in the table's arena, so one image
  // captures the sampler exactly.
  Status CollectArenaImages(ArenaImageMode mode,
                            std::vector<ArenaImage>* out) override {
    if (out == nullptr) return InvalidArgumentError("null output pointer");
    ArenaImage img;
    CollectFlatTableImage(naive_.mutable_table(), mode, &img);
    out->push_back(std::move(img));
    return Status::Ok();
  }

  Status RestoreFromArenas(std::vector<ArenaLoad>&& loads) override {
    if (loads.size() != 1) {
      return BadSnapshotError("flat backend expects exactly one arena image");
    }
    FlatTable t;
    Status st = FlatTableFromArena(std::move(loads[0]), &t);
    if (!st.ok()) return st;
    naive_.RestoreTable(std::move(t));
    return Status::Ok();
  }

  Status DumpItems(std::vector<ItemRecord>* out) const override {
    return DumpFlatTable(naive_.table(), out);
  }

  size_t ApproxMemoryBytes() const override {
    return sizeof(*this) + naive_.ApproxMemoryBytes();
  }

 private:
  NaiveDpss naive_;
  RandomEngine rng_;
};

// --- "rebuild" -----------------------------------------------------------

class RebuildBackend final : public Sampler {
 public:
  explicit RebuildBackend(const SamplerSpec& spec)
      : alpha_(spec.fixed_alpha),
        beta_(spec.fixed_beta),
        rebuild_(spec.fixed_alpha, spec.fixed_beta),
        rng_(spec.seed) {
    SeedFallbackRng(spec.seed);
  }

  const char* name() const override { return "rebuild"; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.decay = true;
    caps.sample_distinct = true;
    caps.top_k = true;
    return caps;
  }

  // The base-class generic Decay would go through SetWeight — and this
  // backend's whole point is that every SetWeight pays an Ω(n) rebuild, so
  // the loop would be Ω(n²). Rewrite the table directly and pay exactly
  // one rebuild instead.
  Status Decay(Rational64 factor) override {
    Status st = ValidateDecayFactor(factor);
    if (!st.ok()) return st;
    if (factor.num == factor.den) return Status::Ok();
    FlatTable t = std::move(*rebuild_.mutable_table());
    for (uint64_t slot = 0; slot < t.weights.size(); ++slot) {
      if (t.live[slot] == 0 || t.weights[slot] == 0) continue;
      t.SetWeightValue(
          MakeItemId(slot, t.gens[slot]),
          static_cast<uint64_t>(
              static_cast<unsigned __int128>(t.weights[slot]) * factor.num /
              factor.den));
    }
    rebuild_.RestoreTable(std::move(t));
    return Status::Ok();
  }

  StatusOr<ItemId> Insert(uint64_t weight) override {
    return rebuild_.Insert(weight);
  }

  StatusOr<ItemId> InsertWeight(Weight w) override {
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    return rebuild_.Insert(value);
  }

  Status Erase(ItemId id) override {
    if (!rebuild_.Contains(id)) return InvalidIdError();
    rebuild_.Erase(id);
    return Status::Ok();
  }

  Status SetWeight(ItemId id, Weight w) override {
    if (!rebuild_.Contains(id)) return InvalidIdError();
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    rebuild_.SetWeight(id, value);
    return Status::Ok();
  }

  bool Contains(ItemId id) const override { return rebuild_.Contains(id); }

  StatusOr<Weight> GetWeight(ItemId id) const override {
    if (!rebuild_.Contains(id)) return InvalidIdError();
    return Weight::FromU64(rebuild_.GetWeight(id));
  }

  uint64_t size() const override { return rebuild_.size(); }

  BigUInt TotalWeight() const override {
    return BigUInt::FromU128(rebuild_.total_weight());
  }

  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    st = CheckFixedParams(alpha, beta, alpha_, beta_);
    if (!st.ok()) return st;
    *out = rebuild_.Sample(rng_);
    return Status::Ok();
  }

  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    st = CheckFixedParams(alpha, beta, alpha_, beta_);
    if (!st.ok()) return st;
    *out = rebuild_.Sample(rng);
    return Status::Ok();
  }

  Status DumpItems(std::vector<ItemRecord>* out) const override {
    return DumpFlatTable(rebuild_.table(), out);
  }

  size_t ApproxMemoryBytes() const override {
    return sizeof(*this) + rebuild_.ApproxMemoryBytes();
  }

 private:
  Rational64 alpha_;
  Rational64 beta_;
  RebuildDpss rebuild_;
  RandomEngine rng_;
};

// bucket_jump and odss wrap structures keyed by opaque handles, so the
// adapter owns the id table itself — the shared FlatTable from
// baseline/flat_table.h.

// --- "bucket_jump" -------------------------------------------------------

class BucketJumpBackend final : public Sampler {
 public:
  explicit BucketJumpBackend(const SamplerSpec& spec)
      : alpha_(spec.fixed_alpha), beta_(spec.fixed_beta), rng_(spec.seed) {
    SeedFallbackRng(spec.seed);
  }

  const char* name() const override { return "bucket_jump"; }

  Capabilities capabilities() const override {
    Capabilities caps;
    // The generic Decay loop is the right cost here: each SetWeight is
    // O(1) and only dirties the lazy structure, so a decay is O(n) with
    // one deferred rebuild at the next query.
    caps.decay = true;
    caps.sample_distinct = true;
    caps.top_k = true;
    return caps;
  }

  StatusOr<ItemId> Insert(uint64_t weight) override {
    dirty_ = true;
    return table_.InsertWeightValue(weight);
  }

  StatusOr<ItemId> InsertWeight(Weight w) override {
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    dirty_ = true;
    return table_.InsertWeightValue(value);
  }

  Status Erase(ItemId id) override {
    if (!table_.ContainsId(id)) return InvalidIdError();
    table_.EraseId(id);
    dirty_ = true;
    return Status::Ok();
  }

  Status SetWeight(ItemId id, Weight w) override {
    if (!table_.ContainsId(id)) return InvalidIdError();
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    table_.SetWeightValue(id, value);
    dirty_ = true;
    return Status::Ok();
  }

  bool Contains(ItemId id) const override { return table_.ContainsId(id); }

  StatusOr<Weight> GetWeight(ItemId id) const override {
    if (!table_.ContainsId(id)) return InvalidIdError();
    return Weight::FromU64(table_.weights[SlotIndexOf(id)]);
  }

  uint64_t size() const override { return table_.count; }

  BigUInt TotalWeight() const override {
    return BigUInt::FromU128(table_.total);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    return SampleInto(alpha, beta, rng_, out);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    st = CheckFixedParams(alpha, beta, alpha_, beta_);
    if (!st.ok()) return st;
    EnsureBuilt();
    *out = jump_->Sample(rng);
    return Status::Ok();
  }

  Status DumpItems(std::vector<ItemRecord>* out) const override {
    return DumpFlatTable(table_, out);
  }

  size_t ApproxMemoryBytes() const override {
    return sizeof(*this) + table_.ApproxBytes() +
           (jump_ == nullptr ? 0 : table_.count * kApproxRationalItemBytes);
  }

  std::string DebugString() const override {
    return Sampler::DebugString() +
           " lazy_rebuilds=" + std::to_string(rebuilds_) +
           (dirty_ ? " (dirty)" : "");
  }

 private:
  // Deferred Ω(n) reconstruction: mutations are O(1) and only mark the
  // structure dirty; the next query pays one rebuild. A batch of k
  // mutations therefore costs O(k + n) up to the next query, versus the
  // "rebuild" backend's O(k·n).
  void EnsureBuilt() const {
    if (!dirty_ && jump_ != nullptr) return;
    jump_ = std::make_unique<BucketJumpSampler>();
    BigUInt wnum, wden;
    ParameterizedTotal(BigUInt::FromU128(table_.total), alpha_, beta_, &wnum,
                       &wden);
    for (uint64_t slot = 0; slot < table_.weights.size(); ++slot) {
      if (!table_.live[slot] || table_.weights[slot] == 0) continue;
      const ItemId id = MakeItemId(slot, table_.gens[slot]);
      if (wnum.IsZero()) {
        jump_->Insert(id, BigUInt(uint64_t{1}), BigUInt(uint64_t{1}));
      } else {
        jump_->Insert(id, BigUInt::MulU64(wden, table_.weights[slot]), wnum);
      }
    }
    dirty_ = false;
    ++rebuilds_;
  }

  Rational64 alpha_;
  Rational64 beta_;
  FlatTable table_;
  mutable std::unique_ptr<BucketJumpSampler> jump_;
  mutable bool dirty_ = true;
  mutable uint64_t rebuilds_ = 0;
  RandomEngine rng_;
};

// --- "odss" --------------------------------------------------------------

class OdssBackend final : public Sampler {
 public:
  explicit OdssBackend(const SamplerSpec& spec)
      : alpha_(spec.fixed_alpha), beta_(spec.fixed_beta), rng_(spec.seed) {
    SeedFallbackRng(spec.seed);
  }

  const char* name() const override { return "odss"; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.decay = true;  // override below: one refresh, not one per item
    caps.sample_distinct = true;  // generic exact WOR engine
    caps.top_k = true;            // generic dump-and-rank
    return caps;
  }

  // The generic Decay would route through SetWeight and pay an Ω(n)
  // probability refresh per item (O(n²) total). Scale the flat table
  // directly and refresh once.
  Status Decay(Rational64 factor) override {
    Status st = ValidateDecayFactor(factor);
    if (!st.ok()) return st;
    if (factor.num == factor.den) return Status::Ok();
    for (uint64_t slot = 0; slot < table_.weights.size(); ++slot) {
      if (!table_.live[slot] || table_.weights[slot] == 0) continue;
      table_.SetWeightValue(
          MakeItemId(slot, table_.gens[slot]),
          static_cast<uint64_t>(
              static_cast<unsigned __int128>(table_.weights[slot]) *
              factor.num / factor.den));
    }
    RefreshAllProbabilities();
    return Status::Ok();
  }

  StatusOr<ItemId> Insert(uint64_t weight) override {
    return InsertValue(weight, /*refresh=*/true);
  }

  StatusOr<ItemId> InsertWeight(Weight w) override {
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    return InsertValue(value, /*refresh=*/true);
  }

  Status Erase(ItemId id) override { return EraseId(id, /*refresh=*/true); }

  Status SetWeight(ItemId id, Weight w) override {
    return SetWeightId(id, w, /*refresh=*/true);
  }

  // Bulk load with one refresh at the end (u64 weights cannot fail), not
  // the default loop of per-insert O(n) refreshes.
  Status InsertBatch(std::span<const uint64_t> weights,
                     std::vector<ItemId>* ids) override {
    if (ids != nullptr) ids->reserve(ids->size() + weights.size());
    for (const uint64_t w : weights) {
      StatusOr<ItemId> id = InsertValue(w, /*refresh=*/false);
      if (ids != nullptr) ids->push_back(*id);
    }
    if (!weights.empty()) RefreshAllProbabilities();
    return Status::Ok();
  }

  // A mutation changes Σw and with it every item's probability — the DSS
  // structure only supports per-item updates, so each op costs Ω(n)
  // probability refreshes (the separation Theorem 1.1 closes). Batching
  // defers the refresh to once per batch: O(n + k) instead of O(n·k).
  Status ApplyBatch(std::span<const Op> ops,
                    std::vector<ItemId>* inserted_ids,
                    size_t* num_applied) override {
    Status result = Status::Ok();
    size_t applied = 0;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Kind::kInsert: {
          StatusOr<ItemId> id = InsertValueFromWeight(op.weight);
          if (!id.ok()) {
            result = id.status();
            break;
          }
          ++applied;
          if (inserted_ids != nullptr) inserted_ids->push_back(*id);
          continue;
        }
        case Op::Kind::kErase:
          result = EraseId(op.id, /*refresh=*/false);
          if (result.ok()) {
            ++applied;
            continue;
          }
          break;
        case Op::Kind::kSetWeight:
          result = SetWeightId(op.id, op.weight, /*refresh=*/false);
          if (result.ok()) {
            ++applied;
            continue;
          }
          break;
        case Op::Kind::kDecay:
          // Decay refreshes internally; the extra batch-end refresh is
          // redundant but harmless.
          result = Decay(op.DecayFactor());
          if (result.ok()) {
            ++applied;
            continue;
          }
          break;
        default:
          result = InvalidArgumentError("malformed Op record");
          break;
      }
      break;
    }
    if (applied > 0) RefreshAllProbabilities();
    if (num_applied != nullptr) *num_applied = applied;
    return result;
  }

  bool Contains(ItemId id) const override { return table_.ContainsId(id); }

  StatusOr<Weight> GetWeight(ItemId id) const override {
    if (!table_.ContainsId(id)) return InvalidIdError();
    return Weight::FromU64(table_.weights[SlotIndexOf(id)]);
  }

  uint64_t size() const override { return table_.count; }

  BigUInt TotalWeight() const override {
    return BigUInt::FromU128(table_.total);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta,
                    std::vector<ItemId>* out) override {
    return SampleInto(alpha, beta, rng_, out);
  }

  Status SampleInto(Rational64 alpha, Rational64 beta, RandomEngine& rng,
                    std::vector<ItemId>* out) const override {
    Status st = ValidateQueryArgs(alpha, beta, out);
    if (!st.ok()) return st;
    st = CheckFixedParams(alpha, beta, alpha_, beta_);
    if (!st.ok()) return st;
    *out = odss_.Sample(rng);
    return Status::Ok();
  }

  Status DumpItems(std::vector<ItemRecord>* out) const override {
    return DumpFlatTable(table_, out);
  }

  size_t ApproxMemoryBytes() const override {
    return sizeof(*this) + table_.ApproxBytes() + handles_.capacity() * 8 +
           table_.count * kApproxRationalItemBytes;
  }

 private:
  StatusOr<ItemId> InsertValueFromWeight(Weight w) {
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    return InsertValue(value, /*refresh=*/false);
  }

  StatusOr<ItemId> InsertValue(uint64_t weight, bool refresh) {
    const ItemId id = table_.InsertWeightValue(weight);
    const uint64_t slot = SlotIndexOf(id);
    // Insert with probability 0; the refresh assigns the real value (and
    // re-targets every other item's probability, which the new Σw shifted).
    const uint64_t handle = odss_.Insert(id, BigUInt(), BigUInt(uint64_t{1}));
    if (handles_.size() <= slot) handles_.resize(slot + 1);
    handles_[slot] = handle;
    if (refresh) RefreshAllProbabilities();
    return id;
  }

  Status EraseId(ItemId id, bool refresh) {
    if (!table_.ContainsId(id)) return InvalidIdError();
    odss_.Erase(handles_[SlotIndexOf(id)]);
    table_.EraseId(id);
    if (refresh) RefreshAllProbabilities();
    return Status::Ok();
  }

  Status SetWeightId(ItemId id, Weight w, bool refresh) {
    if (!table_.ContainsId(id)) return InvalidIdError();
    uint64_t value = 0;
    Status st = WeightToU64(w, &value);
    if (!st.ok()) return st;
    table_.SetWeightValue(id, value);
    if (refresh) RefreshAllProbabilities();
    return Status::Ok();
  }

  void RefreshAllProbabilities() {
    BigUInt wnum, wden;
    ParameterizedTotal(BigUInt::FromU128(table_.total), alpha_, beta_, &wnum,
                       &wden);
    const bool w_zero = wnum.IsZero();
    for (uint64_t slot = 0; slot < table_.weights.size(); ++slot) {
      if (!table_.live[slot]) continue;
      const uint64_t w = table_.weights[slot];
      if (w == 0) {
        odss_.UpdateProbability(handles_[slot], BigUInt(),
                                 BigUInt(uint64_t{1}));
      } else if (w_zero) {
        // W == 0: probability 1.
        odss_.UpdateProbability(handles_[slot], BigUInt(uint64_t{1}),
                                 BigUInt(uint64_t{1}));
      } else {
        odss_.UpdateProbability(handles_[slot], BigUInt::MulU64(wden, w),
                                 wnum);
      }
    }
  }

  Rational64 alpha_;
  Rational64 beta_;
  FlatTable table_;
  std::vector<uint64_t> handles_;  // slot -> OdssSampler handle
  OdssSampler odss_;
  RandomEngine rng_;
};

// --- Factories -----------------------------------------------------------

// The fixed-(α, β) backends bake spec.fixed_alpha/fixed_beta into every
// maintained probability, so malformed values must be rejected up front —
// a zero denominator would otherwise surface as a divide-by-zero deep in
// the first refresh instead of a construction-time diagnostic.
Status ValidateFixedParams(const SamplerSpec& spec) {
  if (spec.fixed_alpha.den == 0) {
    return InvalidArgumentError(
        "SamplerSpec::fixed_alpha has a zero denominator");
  }
  if (spec.fixed_beta.den == 0) {
    return InvalidArgumentError(
        "SamplerSpec::fixed_beta has a zero denominator");
  }
  return Status::Ok();
}

template <typename Backend>
StatusOr<std::unique_ptr<Sampler>> MakeBackend(const SamplerSpec& spec) {
  return StatusOr<std::unique_ptr<Sampler>>(
      std::make_unique<Backend>(spec));
}

template <typename Backend>
StatusOr<std::unique_ptr<Sampler>> MakeFixedBackend(
    const SamplerSpec& spec) {
  Status st = ValidateFixedParams(spec);
  if (!st.ok()) return st;
  return MakeBackend<Backend>(spec);
}

}  // namespace

namespace internal_registry {

std::vector<NamedFactory> BaselineBackends() {
  return {
      {"naive", &MakeBackend<NaiveBackend>},
      {"rebuild", &MakeFixedBackend<RebuildBackend>},
      {"bucket_jump", &MakeFixedBackend<BucketJumpBackend>},
      {"odss", &MakeFixedBackend<OdssBackend>},
  };
}

}  // namespace internal_registry
}  // namespace dpss
