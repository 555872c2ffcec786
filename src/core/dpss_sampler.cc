#include "core/dpss_sampler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "random/bernoulli.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/little_endian.h"

namespace dpss {

int DpssSampler::CapacityLog2For(uint64_t n) {
  uint64_t clamped = n < 16 ? 16 : n;
  if (clamped > (uint64_t{1} << 56)) clamped = uint64_t{1} << 56;
  return FloorLog2(NextPowerOf16(clamped));
}

DpssSampler::DpssSampler(const Options& options)
    : options_(options), rng_(options.seed) {
  DPSS_CHECK(options.migrate_per_update >= 5);
  Init(nullptr);
}

DpssSampler::DpssSampler(const std::vector<uint64_t>& weights, uint64_t seed)
    : DpssSampler(weights, Options{seed}) {}

DpssSampler::DpssSampler(const std::vector<uint64_t>& weights,
                         const Options& options)
    : options_(options), rng_(options.seed) {
  DPSS_CHECK(options.migrate_per_update >= 5);
  Init(&weights);
}

void DpssSampler::Init(const std::vector<uint64_t>* weights) {
  for (int c = 0; c < 2; ++c) {
    listeners_[c].owner = this;
    listeners_[c].column = c;
  }
  uint64_t nonzero = 0;
  if (weights != nullptr) {
    for (uint64_t w : *weights) nonzero += w != 0 ? 1 : 0;
  }
  halt_ = std::make_unique<HaltStructure>(CapacityLog2For(nonzero),
                                          &listeners_[active_]);
  n0_ = nonzero < 16 ? 16 : nonzero;
  if (weights == nullptr) return;
  slots_.reserve(weights->size());
  for (uint64_t w : *weights) {
    const ItemId id = AllocateSlot(Weight::FromU64(w));
    const Slot& slot = slots_[SlotIndexOf(id)];
    if (w != 0) {
      halt_->Insert(id, slot.weight);
      AddWeightToTotal(slot.weight);
      ++nonzero_count_;
    }
  }
}

DpssSampler::ItemId DpssSampler::AllocateSlot(Weight w) {
  uint64_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = slots_.size();
    DPSS_CHECK(index <= kIdSlotMask);
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.weight = w;
  slot.locs[0] = BucketStructure::Location{};
  slot.locs[1] = BucketStructure::Location{};
  slot.in_next_epoch = 0;
  slot.live = true;
  ++live_count_;
  return MakeId(index, slot.generation);
}

void DpssSampler::AddWeightToTotal(Weight w) {
  if (total_fast_ && w.FitsU128()) {
    const unsigned __int128 v = w.ToU128();
    const unsigned __int128 sum = total_u128_ + v;
    if (sum >= total_u128_) {  // no 128-bit wrap
      total_u128_ = sum;
      total_big_fresh_ = false;
      return;
    }
  }
  // Overflow (or an over-2^128 weight): BigUInt becomes authoritative.
  total_weight_ = total_weight() + w.ToBigUInt();
  total_big_fresh_ = true;
  total_fast_ = false;
}

void DpssSampler::SubWeightFromTotal(Weight w) {
  if (total_fast_) {
    // In fast mode Σw fits u128, and every live weight is <= Σw, so the
    // subtrahend fits too.
    total_u128_ -= w.ToU128();
    total_big_fresh_ = false;
    return;
  }
  total_weight_ = BigUInt::Sub(total_weight_, w.ToBigUInt());
  total_big_fresh_ = true;
  if (total_weight_.FitsU128()) {  // shrink back onto the fast path
    total_u128_ = total_weight_.ToU128();
    total_fast_ = true;
  }
}

DpssSampler::ItemId DpssSampler::Insert(uint64_t weight) {
  return InsertWeight(Weight::FromU64(weight));
}

DpssSampler::ItemId DpssSampler::InsertWeight(Weight w) {
  DPSS_CHECK(w.IsZero() || w.BucketIndex() < kLevel1Universe);
  if (w.IsZero()) w = Weight();  // canonical zero: exp carries no value
  const ItemId id = AllocateSlot(w);
  if (!w.IsZero()) {
    halt_->Insert(id, w);
    if (next_halt_ != nullptr) {
      next_halt_->Insert(id, w);
      slots_[SlotIndexOf(id)].in_next_epoch = migration_epoch_;
    }
    AddWeightToTotal(w);
    ++nonzero_count_;
  }
  AfterUpdate();
  return id;
}

void DpssSampler::Erase(ItemId id) {
  DPSS_CHECK(Contains(id));
  Slot& slot = slots_[SlotIndexOf(id)];
  if (!slot.weight.IsZero()) {
    halt_->Erase(slot.locs[active_]);
    if (next_halt_ != nullptr && slot.in_next_epoch == migration_epoch_) {
      next_halt_->Erase(slot.locs[1 - active_]);
    }
    SubWeightFromTotal(slot.weight);
    --nonzero_count_;
  }
  slot.live = false;
  slot.in_next_epoch = 0;
  // Invalidate every outstanding id for this slot before it is reused.
  slot.generation = (slot.generation + 1) & kIdGenerationMask;
  --live_count_;
  free_slots_.push_back(SlotIndexOf(id));
  AfterUpdate();
}

void DpssSampler::SetWeight(ItemId id, Weight w) {
  DPSS_CHECK(Contains(id));
  DPSS_CHECK(w.IsZero() || w.BucketIndex() < kLevel1Universe);
  // Canonicalize zero so zero-to-zero transitions with different exp
  // representations compare equal below (stored zeros are canonical too).
  if (w.IsZero()) w = Weight();
  Slot& slot = slots_[SlotIndexOf(id)];
  const Weight old = slot.weight;
  if (old == w) {
    AfterUpdate();  // a no-op update still advances any in-flight migration
    return;
  }
  const bool in_next =
      next_halt_ != nullptr && slot.in_next_epoch == migration_epoch_;
  if (old.IsZero()) {
    // Revival: structural insert under the existing id.
    halt_->Insert(id, w);
    if (next_halt_ != nullptr) {
      next_halt_->Insert(id, w);
      slot.in_next_epoch = migration_epoch_;
    }
    AddWeightToTotal(w);
    ++nonzero_count_;
  } else if (w.IsZero()) {
    // Park the item: structural erase, but the slot stays live and the id
    // stays valid (no generation bump).
    halt_->Erase(slot.locs[active_]);
    if (in_next) next_halt_->Erase(slot.locs[1 - active_]);
    slot.in_next_epoch = 0;
    SubWeightFromTotal(old);
    --nonzero_count_;
  } else if (w.BucketIndex() == old.BucketIndex()) {
    // Same level-1 bucket: patch the entries in place — no relocation, no
    // hierarchy propagation, in either structure.
    halt_->SetWeight(slot.locs[active_], w);
    if (in_next) next_halt_->SetWeight(slot.locs[1 - active_], w);
    SubWeightFromTotal(old);
    AddWeightToTotal(w);
  } else {
    // Bucket change: internal erase+reinsert that preserves the id, the
    // slot, and the migration bookkeeping (the listener rewrites locs).
    halt_->Erase(slot.locs[active_]);
    halt_->Insert(id, w);
    if (in_next) {
      next_halt_->Erase(slot.locs[1 - active_]);
      next_halt_->Insert(id, w);
    }
    SubWeightFromTotal(old);
    AddWeightToTotal(w);
  }
  slot.weight = w;
  AfterUpdate();
}

Weight DpssSampler::GetWeight(ItemId id) const {
  DPSS_CHECK(Contains(id));
  return slots_[SlotIndexOf(id)].weight;
}

void DpssSampler::AfterUpdate() {
  if (next_halt_ != nullptr) {
    StepMigration();
    return;
  }
  if (!SizeDrifted()) return;
  if (options_.deamortized_rebuild) {
    StartMigration(nonzero_count_);
    StepMigration();
  } else {
    RebuildAmortized(nonzero_count_);
  }
}

void DpssSampler::RebuildAmortized(uint64_t target_size) {
  halt_ = std::make_unique<HaltStructure>(CapacityLog2For(target_size),
                                          &listeners_[active_]);
  n0_ = target_size < 16 ? 16 : target_size;
  halt_->SetUseLookupTable(use_lookup_table_);
  halt_->SetInsignificantLinearScan(insignificant_linear_scan_);
  halt_->SetForceBigIntArithmetic(force_bigint_);
  halt_->SetUseBlockRng(use_block_rng_);
  ++rebuild_count_;
  for (uint64_t index = 0; index < slots_.size(); ++index) {
    Slot& slot = slots_[index];
    if (slot.live && !slot.weight.IsZero()) {
      halt_->Insert(MakeId(index, slot.generation), slot.weight);
    }
  }
}

void DpssSampler::StartMigration(uint64_t target_size) {
  ++migration_epoch_;
  migration_cursor_ = 0;
  next_halt_ = std::make_unique<HaltStructure>(CapacityLog2For(target_size),
                                               &listeners_[1 - active_]);
  next_halt_->SetUseLookupTable(use_lookup_table_);
  next_halt_->SetInsignificantLinearScan(insignificant_linear_scan_);
  next_halt_->SetForceBigIntArithmetic(force_bigint_);
  next_halt_->SetUseBlockRng(use_block_rng_);
}

void DpssSampler::StepMigration() {
  DPSS_DCHECK(next_halt_ != nullptr);
  // Copy up to migrate_per_update items; skip (cheaply) over dead or
  // already-copied slots, with the scan budget capped so one step stays
  // O(migrate_per_update).
  uint64_t copied = 0;
  uint64_t scanned = 0;
  const uint64_t copy_budget =
      static_cast<uint64_t>(options_.migrate_per_update);
  const uint64_t scan_budget = copy_budget * 8;
  while (migration_cursor_ < slots_.size() && copied < copy_budget &&
         scanned < scan_budget) {
    Slot& slot = slots_[migration_cursor_];
    ++scanned;
    if (slot.live && !slot.weight.IsZero() &&
        slot.in_next_epoch != migration_epoch_) {
      next_halt_->Insert(MakeId(migration_cursor_, slot.generation),
                         slot.weight);
      slot.in_next_epoch = migration_epoch_;
      ++copied;
    }
    ++migration_cursor_;
  }
  if (copied > max_migration_step_) max_migration_step_ = copied;
  if (migration_cursor_ >= slots_.size()) FinishMigration();
}

void DpssSampler::FinishMigration() {
  halt_ = std::move(next_halt_);
  active_ = 1 - active_;
  n0_ = nonzero_count_ < 16 ? 16 : nonzero_count_;
  ++rebuild_count_;
}

void DpssSampler::SetUseLookupTable(bool v) {
  use_lookup_table_ = v;
  halt_->SetUseLookupTable(v);
  if (next_halt_ != nullptr) next_halt_->SetUseLookupTable(v);
}

void DpssSampler::SetInsignificantLinearScan(bool v) {
  insignificant_linear_scan_ = v;
  halt_->SetInsignificantLinearScan(v);
  if (next_halt_ != nullptr) next_halt_->SetInsignificantLinearScan(v);
}

void DpssSampler::SetForceBigIntArithmetic(bool v) {
  force_bigint_ = v;
  halt_->SetForceBigIntArithmetic(v);
  if (next_halt_ != nullptr) next_halt_->SetForceBigIntArithmetic(v);
}

void DpssSampler::SetUseBlockRng(bool v) {
  use_block_rng_ = v;
  halt_->SetUseBlockRng(v);
  if (next_halt_ != nullptr) next_halt_->SetUseBlockRng(v);
}

std::vector<DpssSampler::ItemId> DpssSampler::Sample(Rational64 alpha,
                                                     Rational64 beta) {
  return Sample(alpha, beta, rng_);
}

std::vector<DpssSampler::ItemId> DpssSampler::Sample(Rational64 alpha,
                                                     Rational64 beta,
                                                     RandomEngine& rng) const {
  std::vector<ItemId> out;
  SampleInto(alpha, beta, rng, &out);
  return out;
}

void DpssSampler::SampleInto(Rational64 alpha, Rational64 beta,
                             std::vector<ItemId>* out) {
  SampleInto(alpha, beta, rng_, out);
}

void DpssSampler::SampleInto(Rational64 alpha, Rational64 beta,
                             RandomEngine& rng,
                             std::vector<ItemId>* out) const {
  BigUInt wnum, wden;
  ComputeW(alpha, beta, &wnum, &wden);
  SampleIntoW(wnum, wden, rng, out);
}

void DpssSampler::SampleIntoW(const BigUInt& wnum, const BigUInt& wden,
                              RandomEngine& rng,
                              std::vector<ItemId>* out) const {
  // μ ≈ Σw·wden/wnum when no item probability caps at 1; the bit-length
  // quotient brackets that within 2x, which is enough for a reserve hint.
  // Capped items make the estimate an overcount (arbitrarily so for skewed
  // weights), so the hint is also bounded by a constant: beyond it the
  // buffer reaches steady state through actual outputs in O(log) doublings
  // and stays there across calls.
  const int total_bits =
      total_fast_ ? BitLength(total_u128_) : total_weight().BitLength();
  if (!wnum.IsZero() && total_bits != 0) {
    constexpr uint64_t kMaxReserveHint = 4096;
    const int diff = total_bits + wden.BitLength() - wnum.BitLength();
    if (diff >= 0) {
      const uint64_t est =
          diff >= 62 ? kMaxReserveHint : std::min(kMaxReserveHint,
                                                  uint64_t{2} << diff);
      out->reserve(std::min(est, nonzero_count_));
    }
  }
  halt_->SampleInto(wnum, wden, rng, out);
}

double DpssSampler::ExpectedSampleSize(Rational64 alpha,
                                       Rational64 beta) const {
  BigUInt wnum, wden;
  ComputeW(alpha, beta, &wnum, &wden);
  return ExpectedSampleSizeW(wnum, wden);
}

double DpssSampler::ExpectedSampleSizeW(const BigUInt& wnum,
                                        const BigUInt& wden) const {
  if (wnum.IsZero()) return static_cast<double>(nonzero_count_);
  // inv_w = wden / wnum; p_x = min(1, mult·2^exp·inv_w).
  const double inv_w = BigRational(wden, wnum).ToDouble();
  double mu = 0;
  const BucketStructure& bg = halt_->level1();
  const BitmapConstRef buckets = bg.nonempty_buckets();
  for (int b = buckets.Min(); b != -1; b = buckets.Next(b)) {
    const BucketStructure::BucketView view = bg.Bucket(b);
    for (uint32_t i = 0; i < view.size(); ++i) {
      const Weight w = view.WeightAt(i);
      const double p = static_cast<double>(w.mult) * inv_w *
                       std::exp2(static_cast<double>(w.exp));
      mu += p < 1.0 ? p : 1.0;
    }
  }
  return mu;
}

bool DpssSampler::SampleOne(RandomEngine& rng, ItemId* out) const {
  DPSS_CHECK(out != nullptr);
  if (nonzero_count_ == 0) return false;
  // Bucket-proportional rejection over the level-1 buckets: bucket b holds
  // count_b items with weights in [2^b, 2^{b+1}), so count_b·2^{b+1}
  // overestimates its mass by less than 2x. Draw a bucket ∝ that bound and
  // a uniform member, then accept with the exact ratio w/2^{b+1} =
  // mult/2^{L+1} (L = floor(log2 mult), so L+1 <= 64 random bits per
  // coin). Acceptance is >= 1/2 everywhere, so O(1) expected rounds, and
  // the accepted law is exactly w(x)/Σw.
  const BucketStructure& bg = halt_->level1();
  const BitmapConstRef buckets = bg.nonempty_buckets();
  struct BucketCum {
    int b;
    BigUInt cum;  // inclusive prefix sum of count·2^{b+1} bounds
  };
  std::vector<BucketCum> cums;
  BigUInt grand;
  for (int b = buckets.Min(); b != -1; b = buckets.Next(b)) {
    const uint64_t count = bg.BucketSize(b);
    if (count == 0) continue;
    grand = grand + BigUInt::ShiftLeft(BigUInt(count), b + 1);
    cums.push_back({b, grand});
  }
  DPSS_CHECK(!cums.empty());
  for (;;) {
    const BigUInt r = RandomBigBelow(grand, rng);
    int b = -1;
    for (const BucketCum& bc : cums) {
      if (r < bc.cum) {
        b = bc.b;
        break;
      }
    }
    DPSS_CHECK(b >= 0);
    const BucketStructure::BucketView view = bg.Bucket(b);
    const uint32_t i =
        static_cast<uint32_t>(rng.NextBelow(view.size()));
    const Weight w = view.WeightAt(i);
    if (rng.NextBits(BitLength(w.mult)) < w.mult) {
      *out = view.EntryAt(i).handle;
      return true;
    }
  }
}

void DpssSampler::CollectTop(
    uint64_t k, std::vector<std::pair<ItemId, Weight>>* out) const {
  DPSS_CHECK(out != nullptr);
  out->clear();
  if (k == 0 || nonzero_count_ == 0) return;
  const BucketStructure& bg = halt_->level1();
  const BitmapConstRef buckets = bg.nonempty_buckets();
  std::vector<int> order;
  for (int b = buckets.Min(); b != -1; b = buckets.Next(b)) {
    order.push_back(b);
  }
  // Harvest whole buckets from the heaviest down until k items are in
  // hand: everything in a lighter bucket is strictly lighter than
  // everything collected, so only the last bucket over-collects — by less
  // than one bucket's worth, which the final sort-and-truncate trims.
  for (auto it = order.rbegin(); it != order.rend() && out->size() < k;
       ++it) {
    const BucketStructure::BucketView view = bg.Bucket(*it);
    for (uint32_t i = 0; i < view.size(); ++i) {
      const BucketStructure::Entry e = view.EntryAt(i);
      out->emplace_back(e.handle, e.weight);
    }
  }
  std::sort(out->begin(), out->end(),
            [](const std::pair<ItemId, Weight>& a,
               const std::pair<ItemId, Weight>& b) {
              return CompareWeights(a.second, b.second) > 0;
            });
  if (out->size() > k) out->resize(k);
}

void DpssSampler::CollectAtLeast(
    Weight threshold, std::vector<std::pair<ItemId, Weight>>* out) const {
  DPSS_CHECK(out != nullptr);
  out->clear();
  if (nonzero_count_ == 0) return;
  // Buckets strictly above the threshold's bucket qualify wholesale
  // (their weights are >= 2^b > threshold), buckets below are skipped
  // wholesale (their weights are < 2^{b+1} <= 2^{tb} <= threshold); only
  // the threshold's own bucket needs per-entry comparison.
  const int tb = threshold.IsZero() ? -1 : threshold.BucketIndex();
  const BucketStructure& bg = halt_->level1();
  const BitmapConstRef buckets = bg.nonempty_buckets();
  for (int b = buckets.Min(); b != -1; b = buckets.Next(b)) {
    if (b < tb) continue;
    const BucketStructure::BucketView view = bg.Bucket(b);
    for (uint32_t i = 0; i < view.size(); ++i) {
      const BucketStructure::Entry e = view.EntryAt(i);
      if (b == tb && CompareWeights(e.weight, threshold) < 0) continue;
      out->emplace_back(e.handle, e.weight);
    }
  }
}

void DpssSampler::CheckInvariants() const {
  halt_->CheckInvariants();
  if (next_halt_ != nullptr) next_halt_->CheckInvariants();
  uint64_t live = 0, nonzero = 0, in_next = 0;
  BigUInt total;
  for (uint64_t index = 0; index < slots_.size(); ++index) {
    const Slot& slot = slots_[index];
    DPSS_CHECK(slot.generation <= kIdGenerationMask);
    if (!slot.live) continue;
    ++live;
    if (slot.weight.IsZero()) continue;
    ++nonzero;
    total = total + slot.weight.ToBigUInt();
    const ItemId id = MakeId(index, slot.generation);
    const BucketStructure::Entry e =
        halt_->level1().EntryAt(slot.locs[active_]);
    DPSS_CHECK(e.handle == id);
    DPSS_CHECK(e.weight == slot.weight);
    if (next_halt_ != nullptr && slot.in_next_epoch == migration_epoch_) {
      ++in_next;
      const BucketStructure::Entry e2 =
          next_halt_->level1().EntryAt(slot.locs[1 - active_]);
      DPSS_CHECK(e2.handle == id);
      DPSS_CHECK(e2.weight == slot.weight);
    }
  }
  DPSS_CHECK(live == live_count_);
  DPSS_CHECK(nonzero == nonzero_count_);
  DPSS_CHECK(nonzero == halt_->size());
  if (next_halt_ != nullptr) DPSS_CHECK(in_next == next_halt_->size());
  DPSS_CHECK(total == total_weight());
  // The u128 cache and the BigUInt mirror must agree whenever both exist.
  if (total_fast_) DPSS_CHECK(total == BigUInt::FromU128(total_u128_));
}

namespace {

// Snapshot format v3: v1 ("DPSS1S") records were (live, mult, exp); v2
// added the slot generation so live ids — which embed the generation —
// survive a round trip and stale pre-snapshot ids stay invalid after a
// load. v3 additionally records the free-slot LIFO *in order*, so a
// restored sampler assigns exactly the ids the original would have — the
// determinism the write-ahead-log replay in persist/recovery.h depends on
// (a v2 load rebuilt the free list in ascending slot order, which made
// post-restore inserts pick different slots than the live run).
constexpr uint64_t kSnapshotMagic = 0x445053533353ULL;  // "DPSS3S"

}  // namespace

void DpssSampler::Serialize(std::string* out) const {
  DPSS_CHECK(out != nullptr);
  AppendU64(out, kSnapshotMagic);
  AppendU64(out, slots_.size());
  for (const Slot& slot : slots_) {
    // One record per slot: liveness, multiplier, exponent, generation. Dead
    // slots keep their position (and generation) so live item ids survive
    // the round trip and stale ids stay stale.
    AppendU64(out, slot.live ? 1 : 0);
    AppendU64(out, slot.live ? slot.weight.mult : 0);
    AppendU64(out, slot.live ? slot.weight.exp : 0);
    AppendU64(out, slot.generation);
  }
  // The free-slot LIFO, bottom to top: restoring it verbatim makes slot
  // assignment after a load identical to slot assignment after the save.
  AppendU64(out, free_slots_.size());
  for (const uint64_t slot : free_slots_) AppendU64(out, slot);
}

Status DpssSampler::Deserialize(const std::string& bytes,
                                const Options& options, DpssSampler* out) {
  DPSS_CHECK(out != nullptr);
  size_t pos = 0;
  uint64_t magic = 0, count = 0;
  if (!ReadU64(bytes, &pos, &magic) || magic != kSnapshotMagic) {
    return BadSnapshotError("bad magic / not a DPSS2S snapshot");
  }
  if (!ReadU64(bytes, &pos, &count)) {
    return BadSnapshotError("truncated header");
  }
  if (count > kIdSlotMask + 1 || pos + count * 32 + 8 > bytes.size()) {
    return BadSnapshotError("slot count does not match snapshot length");
  }

  // Validate the whole snapshot before mutating `out`.
  std::vector<Weight> weights(count);
  std::vector<bool> live(count, false);
  std::vector<uint32_t> generations(count, 0);
  uint64_t live_count = 0, nonzero_count = 0;
  for (uint64_t id = 0; id < count; ++id) {
    uint64_t is_live = 0, mult = 0, exp = 0, gen = 0;
    if (!ReadU64(bytes, &pos, &is_live) || !ReadU64(bytes, &pos, &mult) ||
        !ReadU64(bytes, &pos, &exp) || !ReadU64(bytes, &pos, &gen)) {
      return BadSnapshotError("truncated slot record");
    }
    if (is_live > 1) {
      return BadSnapshotError("corrupt slot record");
    }
    if (gen > kIdGenerationMask) {
      return BadSnapshotError("slot generation out of range");
    }
    generations[id] = static_cast<uint32_t>(gen);
    if (is_live == 0) continue;
    // Any valid non-zero weight has exp < kLevel1Universe (the bucket index
    // exp + log2(mult) must stay below it). Checking exp against that small
    // bound *before* building the Weight also keeps a corrupt 2^31-ish exp
    // from overflowing BucketIndex()'s int arithmetic into a negative
    // bucket — an out-of-bounds write during the rebuild below.
    if (mult != 0 && exp >= static_cast<uint64_t>(kLevel1Universe)) {
      return BadSnapshotError("weight exponent outside the level-1 universe");
    }
    // Canonical zero, as everywhere else in the sampler.
    const Weight w =
        mult == 0 ? Weight() : Weight(mult, static_cast<uint32_t>(exp));
    if (!w.IsZero() && w.BucketIndex() >= kLevel1Universe) {
      return BadSnapshotError("weight outside the level-1 universe");
    }
    live[id] = true;
    weights[id] = w;
    ++live_count;
    if (!w.IsZero()) ++nonzero_count;
  }

  // The serialized free-slot LIFO must be a permutation of exactly the
  // dead slots: every entry in range, dead, and listed once. Anything else
  // (a bit flip into the list, a truncated tail) is rejected before `out`
  // is touched.
  uint64_t free_count = 0;
  if (!ReadU64(bytes, &pos, &free_count) ||
      free_count != count - live_count ||
      pos + free_count * 8 != bytes.size()) {
    return BadSnapshotError("free-slot list does not match snapshot length");
  }
  std::vector<uint64_t> free_list(free_count);
  std::vector<bool> seen_free(count, false);
  for (uint64_t i = 0; i < free_count; ++i) {
    uint64_t slot = 0;
    if (!ReadU64(bytes, &pos, &slot)) {
      return BadSnapshotError("truncated free-slot list");
    }
    if (slot >= count || live[slot] || seen_free[slot]) {
      return BadSnapshotError("free-slot list names a live or repeated slot");
    }
    seen_free[slot] = true;
    free_list[i] = slot;
  }

  // Reset `out` in place (the listeners are self-referential, so the object
  // cannot be moved).
  out->options_ = options;
  out->rng_.Seed(options.seed);
  out->slots_.assign(count, Slot{});
  out->free_slots_ = std::move(free_list);
  out->live_count_ = live_count;
  out->nonzero_count_ = nonzero_count;
  out->ResetTotals();
  out->next_halt_.reset();
  out->migration_cursor_ = 0;
  out->max_migration_step_ = 0;
  out->rebuild_count_ = 0;
  out->halt_ = std::make_unique<HaltStructure>(
      CapacityLog2For(nonzero_count), &out->listeners_[out->active_]);
  out->halt_->SetUseLookupTable(out->use_lookup_table_);
  out->halt_->SetInsignificantLinearScan(out->insignificant_linear_scan_);
  out->halt_->SetForceBigIntArithmetic(out->force_bigint_);
  out->halt_->SetUseBlockRng(out->use_block_rng_);
  out->n0_ = nonzero_count < 16 ? 16 : nonzero_count;
  for (uint64_t id = 0; id < count; ++id) {
    Slot& slot = out->slots_[id];
    slot.generation = generations[id];
    if (!live[id]) continue;
    slot.live = true;
    slot.weight = weights[id];
    if (!slot.weight.IsZero()) {
      out->halt_->Insert(MakeId(id, slot.generation), slot.weight);
      out->AddWeightToTotal(slot.weight);
    }
  }
  return Status::Ok();
}

size_t DpssSampler::ApproxMemoryBytes() const {
  size_t bytes = halt_->ApproxMemoryBytes() + slots_.capacity() * sizeof(Slot) +
                 free_slots_.capacity() * sizeof(ItemId) + sizeof(*this);
  if (next_halt_ != nullptr) bytes += next_halt_->ApproxMemoryBytes();
  return bytes;
}

}  // namespace dpss
