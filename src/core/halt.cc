#include "core/halt.h"

#include <algorithm>

#include "bigint/rational.h"
#include "random/bernoulli.h"
#include "random/block_rng.h"
#include "random/geometric.h"
#include "util/bits.h"
#include "util/check.h"

namespace dpss {

// ---------------------------------------------------------------------------
// Instance: one node of the three-level hierarchy.
// ---------------------------------------------------------------------------

struct HaltStructure::Instance : BucketStructure::RelocationListener {
  Instance(HaltStructure* owner_in, int level_in, int universe,
           int group_width, BucketStructure::RelocationListener* loc_sink_in,
           int parent_group)
      : owner(owner_in),
        level(level_in),
        loc_sink(loc_sink_in),
        bg(universe, group_width, loc_sink_in, owner_in->arena_.get()),
        synthetic_loc(level_in < 3 ? universe : 0) {
    if (level < 3) {
      children.resize(bg.num_groups());
    } else {
      adapter.Init(parent_group * owner->g2_ + 1, owner->g2_ + 7,
                   LookupTable::BitsPerSlot(owner->m_));
    }
  }

  // Child bucket structures report relocations of our synthetic items here
  // (the handle of a synthetic item is our bucket index).
  void OnRelocate(uint64_t handle, Location loc) override {
    DPSS_DCHECK(handle < synthetic_loc.size());
    synthetic_loc[handle] = loc;
  }

  HaltStructure* owner;
  int level;
  // Receives insert/relocate notifications for OUR elements: the parent
  // instance for levels 2/3, the external item listener for level 1.
  BucketStructure::RelocationListener* loc_sink;
  BucketStructure bg;
  std::vector<std::unique_ptr<Instance>> children;  // by group (levels 1, 2)
  std::vector<Location> synthetic_loc;  // by our bucket index (levels 1, 2)
  Adapter adapter;                      // level 3 only
};

struct HaltStructure::QueryContext {
  const BigUInt* wnum;
  const BigUInt* wden;
  // u128 mirrors of W's terms, valid when `fast` is set. The fast path is a
  // value-level mirror of the BigUInt path (same random bits, same
  // results), so per-site dispatch on operand width is distribution- and
  // stream-invisible.
  U128 wnum128 = 0;
  U128 wden128 = 0;
  bool fast = false;
  WThresholds thresholds;
  RandomEngine* rng;
  QueryScratch* scratch;
};

// Pooled per-query temporaries, owned by the structure and reused across
// calls so a warmed-up query never allocates. `child_out` is indexed by the
// child instance's level: at most one child query per level is in flight at
// a time, and its candidate list is consumed by ExtractItems before the
// next sibling is visited. `entries` stages CollectUpTo/CollectFrom output;
// every use clears it first and consumes it before any nested use.
struct HaltStructure::QueryScratch {
  std::vector<uint64_t> child_out[4];
  std::vector<BucketStructure::Entry> entries;
  std::vector<uint64_t> candidates;  // final-level candidate buckets
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

HaltStructure::HaltStructure(
    int level1_log2_capacity, BucketStructure::RelocationListener* item_listener)
    : g1_(level1_log2_capacity),
      g2_(FloorLog2(NextPowerOf16(static_cast<uint64_t>(level1_log2_capacity)))),
      m_(g2_),
      k_(2 * CeilLog2(static_cast<uint64_t>(g2_)) + 2),
      table_(m_, k_),
      arena_(std::make_unique<Arena>()),
      scratch_(std::make_unique<QueryScratch>()) {
  DPSS_CHECK(g1_ >= 4 && g1_ % 4 == 0 && g1_ <= 60);
  root_ = std::make_unique<Instance>(this, 1, kLevel1Universe, g1_,
                                     item_listener, /*parent_group=*/0);
}

HaltStructure::~HaltStructure() = default;

uint64_t HaltStructure::size() const { return root_->bg.size(); }

const BucketStructure& HaltStructure::level1() const { return root_->bg; }

// ---------------------------------------------------------------------------
// Updates (paper §4.5): O(1) worst-case propagation.
// ---------------------------------------------------------------------------

HaltStructure::Instance* HaltStructure::EnsureChild(Instance* inst,
                                                    int group) {
  DPSS_DCHECK(inst->level < 3);
  auto& slot = inst->children[group];
  if (slot == nullptr) {
    if (inst->level == 1) {
      slot = std::make_unique<Instance>(this, 2, kLevel2Universe, g2_, inst,
                                        group);
    } else {
      slot = std::make_unique<Instance>(this, 3, kLevel3Universe,
                                        /*group_width=*/64, inst, group);
    }
  }
  return slot.get();
}

void HaltStructure::InsertInto(Instance* inst, uint64_t handle, Weight w) {
  const int bucket = w.BucketIndex();
  const uint64_t old_size = inst->bg.BucketSize(bucket);
  const Location loc = inst->bg.Insert(handle, w);
  inst->loc_sink->OnRelocate(handle, loc);
  BucketSizeChanged(inst, bucket, old_size, old_size + 1);
}

void HaltStructure::EraseFrom(Instance* inst, Location loc) {
  const int bucket = loc.bucket;
  const uint64_t old_size = inst->bg.BucketSize(bucket);
  inst->bg.Erase(loc);
  BucketSizeChanged(inst, bucket, old_size, old_size - 1);
}

void HaltStructure::BucketSizeChanged(Instance* inst, int bucket,
                                      uint64_t old_size, uint64_t new_size) {
  if (inst->level == 3) {
    inst->adapter.SetCount(bucket, static_cast<int>(new_size));
    return;
  }
  // The synthetic next-level item for this bucket changes weight from
  // 2^{bucket+1}·old_size to 2^{bucket+1}·new_size: delete + re-insert.
  Instance* child = EnsureChild(inst, inst->bg.GroupOfBucket(bucket));
  if (old_size > 0) {
    EraseFrom(child, inst->synthetic_loc[bucket]);
  }
  if (new_size > 0) {
    InsertInto(child, static_cast<uint64_t>(bucket),
               Weight(new_size, static_cast<uint32_t>(bucket) + 1));
  }
}

void HaltStructure::Insert(uint64_t handle, Weight w) {
  InsertInto(root_.get(), handle, w);
}

void HaltStructure::Erase(Location loc) { EraseFrom(root_.get(), loc); }

void HaltStructure::SetWeight(Location loc, Weight w) {
  // Level-2/3 weights are 2^{i+1}·|B(i)| — functions of bucket sizes only —
  // so a same-bucket patch leaves every other level untouched.
  root_->bg.SetWeight(loc, w);
}

// ---------------------------------------------------------------------------
// Queries (paper §4.1 Algorithms 1-5, §4.4 final level)
// ---------------------------------------------------------------------------

namespace {

// Numerator of p_x = w/W as a big integer: w.mult * 2^w.exp * wden.
BigUInt ItemProbNumerator(const Weight& w, const BigUInt& wden) {
  return BigUInt::MulU64(wden, w.mult) << static_cast<int>(w.exp);
}

// u128 mirror of ItemProbNumerator. Returns false when wden·mult·2^exp
// could need more than 128 bits (the caller then uses the BigUInt form).
inline bool ItemProbNumeratorU128(U128 wden, const Weight& w, U128* out) {
  const int bits =
      BitLength(wden) + BitLength(w.mult) + static_cast<int>(w.exp);
  if (bits > 128) return false;
  *out = (wden * w.mult) << static_cast<int>(w.exp);
  return true;
}

}  // namespace

HaltStructure::WThresholds HaltStructure::ComputeThresholds(
    const BigUInt& wnum, const BigUInt& wden, int m) {
  const BigRational w_rat(wnum, wden);
  WThresholds t;
  t.floor_log2_w = w_rat.FloorLog2();
  t.ceil_log2_w = w_rat.CeilLog2();
  // Final-level threshold: largest i1 with 2^{i1+1} <= 2W/m².
  const BigRational r(wnum << 1,
                      BigUInt::MulU64(wden, static_cast<uint64_t>(m) *
                                                static_cast<uint64_t>(m)));
  t.i1_final = r.FloorLog2() - 1;
  return t;
}

bool HaltStructure::ComputeThresholdsU128(U128 wnum, U128 wden, int m,
                                          WThresholds* out) {
  const U128 m2 = static_cast<U128>(m) * static_cast<U128>(m);
  if (!MulFits(wden, m2)) return false;
  out->floor_log2_w = FloorLog2Ratio(wnum, wden);
  out->ceil_log2_w = CeilLog2RatioFromFloor(wnum, wden, out->floor_log2_w);
  // ⌊log2(2W/m²)⌋ − 1 = ⌊log2(W/m²)⌋, so wnum needs no extra bit.
  out->i1_final = FloorLog2Ratio(wnum, wden * m2);
  return true;
}

std::vector<uint64_t> HaltStructure::Sample(const BigUInt& wnum,
                                            const BigUInt& wden,
                                            RandomEngine& rng) const {
  std::vector<uint64_t> out;
  SampleInto(wnum, wden, rng, &out);
  return out;
}

void HaltStructure::SampleInto(const BigUInt& wnum, const BigUInt& wden,
                               RandomEngine& rng,
                               std::vector<uint64_t>* out) const {
  out->clear();
  if (root_->bg.Empty()) return;
  DPSS_CHECK(!wden.IsZero());

  if (wnum.IsZero()) {
    // W == 0: every (positive-weight) element has probability
    // min{w/0, 1} = 1. Stream the handles straight out of the slab.
    root_->bg.AppendHandlesUpTo(kLevel1Universe - 1, out);
    return;
  }

  QueryContext ctx;
  ctx.wnum = &wnum;
  ctx.wden = &wden;
  ctx.fast = !force_bigint_ && wnum.FitsU128() && wden.FitsU128();
  if (ctx.fast) {
    ctx.wnum128 = wnum.ToU128();
    ctx.wden128 = wden.ToU128();
  }
  if (!ctx.fast ||
      !ComputeThresholdsU128(ctx.wnum128, ctx.wden128, m_, &ctx.thresholds)) {
    ctx.thresholds = ComputeThresholds(wnum, wden, m_);
  }
  ctx.rng = &rng;
  ctx.scratch = scratch_.get();
  // Batch the first block of random words up front (stream-invisible; see
  // random/block_rng.h for the consumption-order contract).
  if (use_block_rng_) rng.PrefetchWords(kQueryPrefetchWords);
  Query(root_.get(), ctx, out);
}

void HaltStructure::Query(const Instance* inst, const QueryContext& ctx,
                          std::vector<uint64_t>* out) const {
  if (inst->bg.Empty()) return;
  const int g = inst->bg.group_width();
  // Bucket-level thresholds: buckets <= i1 are insignificant
  // (2^{i1+1}·2^{2g} <= W), buckets >= i2 are certain (2^{i2} >= W).
  const int i1 = ctx.thresholds.floor_log2_w - 2 * g - 1;
  const int i2 = ctx.thresholds.ceil_log2_w;
  // Group-aligned boundaries: groups <= j1 are entirely insignificant,
  // groups >= j2 entirely certain; groups strictly between are significant.
  const int j1 = (i1 + 1 >= g) ? (i1 + 1) / g - 1 : -1;
  const int j2 = i2 <= 0 ? 0 : (i2 + g - 1) / g;

  if (j1 >= 0) {
    // The insignificance coin has probability 1/2^{2g}; 2g can reach 128
    // only for instances that never take this branch via Query (level 3 is
    // queried through QueryFinalLevel), but guard anyway.
    const U128 coin_den128 =
        2 * g <= 127 ? static_cast<U128>(1) << (2 * g) : 0;
    QueryInsignificant(inst, ctx, (j1 + 1) * g - 1, /*coin_num=*/1,
                       BigUInt::PowerOfTwo(2 * g), coin_den128, out);
  }
  QueryCertain(inst, ctx, j2 * g, out);

  const BitmapConstRef groups = inst->bg.nonempty_groups();
  if (j1 + 1 < groups.universe() && j1 + 1 < j2) {
    for (int j = groups.Ceiling(std::max(j1 + 1, 0)); j != -1 && j < j2;
         j = groups.Next(j)) {
      const Instance* child = inst->children[j].get();
      DPSS_CHECK(child != nullptr && !child->bg.Empty());
      // Overlap the next significant sibling's instance (its bitmaps and
      // header array front) with the walk into this child.
      const int j_next = groups.Next(j);
      if (j_next != -1 && j_next < j2 && inst->children[j_next] != nullptr) {
        const Instance* sibling = inst->children[j_next].get();
        __builtin_prefetch(sibling, /*rw=*/0, /*locality=*/2);
        __builtin_prefetch(&sibling->bg, /*rw=*/0, /*locality=*/2);
      }
      // One candidate list per child level is live at a time: it is filled
      // by the child query and consumed by ExtractItems before the next
      // sibling group is visited.
      std::vector<uint64_t>& candidates = ctx.scratch->child_out[child->level];
      candidates.clear();
      if (inst->level == 2) {
        QueryFinalLevel(child, ctx, &candidates);
      } else {
        Query(child, ctx, &candidates);
      }
      ExtractItems(inst, candidates, ctx, out);
    }
  }
}

namespace {

// One Ber(p_x) coin for an item, dispatching to the u128 mirror when the
// probability numerator fits two words.
inline bool SampleItemCoin(const HaltStructure::Entry& e, bool fast, U128 wden128,
                           U128 wnum128, const BigUInt& wden,
                           const BigUInt& wnum, RandomEngine& rng) {
  U128 num128;
  if (fast && ItemProbNumeratorU128(wden128, e.weight, &num128)) {
    return SampleBernoulliRational(num128, wnum128, rng);
  }
  return SampleBernoulliRational(ItemProbNumerator(e.weight, wden), wnum, rng);
}

}  // namespace

void HaltStructure::QueryInsignificant(const Instance* inst,
                                       const QueryContext& ctx, int max_bucket,
                                       uint64_t coin_num,
                                       const BigUInt& coin_den,
                                       U128 coin_den128,
                                       std::vector<uint64_t>* out) const {
  if (max_bucket < 0) return;
  const uint64_t n = inst->bg.size();
  if (n == 0) return;

  if (insignificant_linear_scan_) {
    // Ablation A2: one exact coin per insignificant item.
    std::vector<Entry>& all = ctx.scratch->entries;
    all.clear();
    inst->bg.CollectUpTo(max_bucket, &all);
    for (const Entry& e : all) {
      if (SampleItemCoin(e, ctx.fast, ctx.wden128, ctx.wnum128, *ctx.wden,
                         *ctx.wnum, *ctx.rng)) {
        out->push_back(e.handle);
      }
    }
    return;
  }

  // One coin of probability coin >= p_x decides whether anything at all is
  // sampled; the full scan below runs with probability <= n·coin = O(1/N).
  const bool fast = ctx.fast && coin_den128 != 0;
  const uint64_t k =
      fast ? SampleBoundedGeo(static_cast<U128>(coin_num), coin_den128, n + 1,
                              *ctx.rng)
           : SampleBoundedGeo(BigUInt(coin_num), coin_den, n + 1, *ctx.rng);
  if (k > n) return;

  std::vector<Entry>& items = ctx.scratch->entries;
  items.clear();
  inst->bg.CollectUpTo(max_bucket, &items);
  if (k > items.size()) return;

  // Item at index k was hit by the coin: accept with p_x / coin.
  {
    const Entry& e = items[k - 1];
    U128 base128;
    bool hit;
    if (fast && ItemProbNumeratorU128(ctx.wden128, e.weight, &base128) &&
        MulFits(base128, coin_den128) && MulFits(ctx.wnum128, coin_num)) {
      const U128 num = base128 * coin_den128;
      const U128 den = ctx.wnum128 * coin_num;
      DPSS_DCHECK(num <= den);
      hit = SampleBernoulliRational(num, den, *ctx.rng);
    } else {
      const BigUInt num = ItemProbNumerator(e.weight, *ctx.wden) * coin_den;
      const BigUInt den = BigUInt::MulU64(*ctx.wnum, coin_num);
      DPSS_DCHECK(BigUInt::Compare(num, den) <= 0);
      hit = SampleBernoulliRational(num, den, *ctx.rng);
    }
    if (hit) out->push_back(e.handle);
  }
  // Remaining items: plain Ber(p_x) coins (we already pay O(|A|) here).
  for (size_t idx = k; idx < items.size(); ++idx) {
    if (SampleItemCoin(items[idx], ctx.fast, ctx.wden128, ctx.wnum128,
                       *ctx.wden, *ctx.wnum, *ctx.rng)) {
      out->push_back(items[idx].handle);
    }
  }
}

void HaltStructure::QueryCertain(const Instance* inst, const QueryContext& ctx,
                                 int min_bucket,
                                 std::vector<uint64_t>* out) const {
  // Certain items are output verbatim: stream the handles straight out of
  // the slab instead of materializing Entry copies in scratch.
  (void)ctx;
  inst->bg.AppendHandlesFrom(min_bucket, out);
}

void HaltStructure::ExtractItems(const Instance* inst,
                                 const std::vector<uint64_t>& candidate_buckets,
                                 const QueryContext& ctx,
                                 std::vector<uint64_t>* out) const {
  for (size_t ci = 0; ci < candidate_buckets.size(); ++ci) {
    const int bucket = static_cast<int>(candidate_buckets[ci]);
    // Overlap the next candidate's extent with the draws over this one, and
    // keep the word buffer topped up for the coins below.
    if (ci + 1 < candidate_buckets.size()) {
      inst->bg.PrefetchBucket(static_cast<int>(candidate_buckets[ci + 1]));
    }
    if (use_block_rng_) ctx.rng->PrefetchWords(kBucketPrefetchWords);
    const BucketStructure::BucketView entries = inst->bg.Bucket(bucket);
    const uint64_t n_i = entries.size();
    DPSS_CHECK(n_i >= 1);

    // Per-item potential probability p = min{1, 2^{bucket+1}/W}. The whole
    // bucket runs on the u128 mirror when 2^{bucket+1}·wden fits two words
    // (the overwhelmingly common case for u64 weights).
    if (ctx.fast && ShiftLeftFits(ctx.wden128, bucket + 1)) {
      const U128 pnum = ctx.wden128 << (bucket + 1);
      const U128 pden = ctx.wnum128;
      const bool p_is_one = pnum >= pden;

      bool case1 = p_is_one;
      if (!case1) {
        // p·n_i >= 1? The product can exceed two words; settle those in
        // BigUInt (a pure comparison — no bits drawn).
        case1 = MulFits(pnum, n_i)
                    ? pnum * n_i >= pden
                    : BigUInt::Compare(
                          BigUInt::MulU64(BigUInt::FromU128(pnum), n_i),
                          *ctx.wnum) >= 0;
      }
      uint64_t k;
      if (case1) {
        k = SampleBoundedGeo(pnum, pden, n_i + 1, *ctx.rng);
        if (k > n_i) continue;
      } else {
        if (!SampleBernoulliPStar(pnum, pden, n_i, *ctx.rng)) continue;
        k = SampleTruncatedGeo(pnum, pden, n_i, *ctx.rng);
      }

      while (k <= n_i) {
        const BucketStructure::PackedEntry& e =
            entries[static_cast<uint32_t>(k - 1)];
        bool accept;
        if (p_is_one) {
          accept = SampleItemCoin(entries.EntryAt(static_cast<uint32_t>(k - 1)),
                                  /*fast=*/true, ctx.wden128, ctx.wnum128,
                                  *ctx.wden, *ctx.wnum, *ctx.rng);
        } else {
          // Accept with p_x/p = mult / 2^{bucket+1-exp}; the packed layout's
          // implied exponent makes the draw width bitlen(mult) directly.
          accept = ctx.rng->NextBits(BitLength(e.mult)) < e.mult;
        }
        if (accept) out->push_back(e.handle);
        k += SampleBoundedGeo(pnum, pden, n_i + 1, *ctx.rng);
      }
      continue;
    }

    const BigUInt pnum = *ctx.wden << (bucket + 1);
    const BigUInt& pden = *ctx.wnum;
    const bool p_is_one = BigUInt::Compare(pnum, pden) >= 0;

    uint64_t k;
    if (p_is_one || BigUInt::Compare(BigUInt::MulU64(pnum, n_i), pden) >= 0) {
      // Case 1 (p·n_i >= 1): the bucket was a certain candidate; reject it
      // iff a fresh B-Geo jump clears the bucket.
      k = SampleBoundedGeo(pnum, pden, n_i + 1, *ctx.rng);
      if (k > n_i) continue;
    } else {
      // Case 2 (p·n_i < 1): the bucket was sampled with probability p·n_i;
      // promote with Ber(p*) so that overall Pr[promising] = 1-(1-p)^{n_i},
      // then locate the first potential item with T-Geo.
      if (!SampleBernoulliPStar(pnum, pden, n_i, *ctx.rng)) continue;
      k = SampleTruncatedGeo(pnum, pden, n_i, *ctx.rng);
    }

    while (k <= n_i) {
      const BucketStructure::PackedEntry& e =
          entries[static_cast<uint32_t>(k - 1)];
      bool accept;
      if (p_is_one) {
        // Accept with p_x itself.
        const Weight w = entries.WeightAt(static_cast<uint32_t>(k - 1));
        accept = SampleBernoulliRational(ItemProbNumerator(w, *ctx.wden),
                                         pden, *ctx.rng);
      } else {
        // Accept with p_x/p = mult / 2^{bucket+1-exp}, a dyadic rational in
        // [1/2, 1): one random draw of bitlen(mult) bits (the implied
        // exponent makes the width bitlen(mult) directly).
        accept = ctx.rng->NextBits(BitLength(e.mult)) < e.mult;
      }
      if (accept) out->push_back(e.handle);
      k += SampleBoundedGeo(pnum, pden, n_i + 1, *ctx.rng);
    }
  }
}

void HaltStructure::QueryFinalLevel(const Instance* inst,
                                    const QueryContext& ctx,
                                    std::vector<uint64_t>* out) const {
  if (inst->bg.Empty()) return;
  const int i1 = ctx.thresholds.i1_final;
  const int i2 = ctx.thresholds.ceil_log2_w;
  const uint64_t m_sq = static_cast<uint64_t>(m_) * static_cast<uint64_t>(m_);

  QueryInsignificant(inst, ctx, i1, /*coin_num=*/2, BigUInt(m_sq),
                     static_cast<U128>(m_sq), out);
  QueryCertain(inst, ctx, i2, out);

  const int width = i2 - i1 - 1;
  if (width <= 0) return;
  DPSS_CHECK(width <= k_);

  std::vector<uint64_t>& candidates = ctx.scratch->candidates;
  candidates.clear();
  if (!use_lookup_table_) {
    // Ablation A1: one exact Bernoulli per significant bucket (O(K)).
    for (int j = 1; j <= width; ++j) {
      const int bucket = i1 + j;
      const uint64_t c = inst->bg.BucketSize(bucket);
      if (c == 0) continue;
      bool hit;
      if (ctx.fast && MulFits(ctx.wden128, c) &&
          ShiftLeftFits(ctx.wden128 * c, bucket + 1)) {
        hit = SampleBernoulliRational((ctx.wden128 * c) << (bucket + 1),
                                      ctx.wnum128, *ctx.rng);
      } else {
        const BigUInt pv_num = BigUInt::MulU64(*ctx.wden, c) << (bucket + 1);
        hit = SampleBernoulliRational(pv_num, *ctx.wnum, *ctx.rng);
      }
      if (hit) candidates.push_back(static_cast<uint64_t>(bucket));
    }
    ExtractItems(inst, candidates, ctx, out);
    return;
  }

  // Adapter → 4S configuration → lookup table (paper §4.4). Slots beyond
  // `width` stay zero so certain buckets are not double-counted.
  const uint64_t config = inst->adapter.ExtractConfig(i1 + 1, width);
  if (config == 0) return;  // no non-empty significant buckets
  const uint32_t result = table_.Sample(config, *ctx.rng);

  // Every bucket the table selected will be opened below (first by the
  // accept coin, then by ExtractItems): start streaming their extents now
  // so the memory latency overlaps the coin draws.
  for (uint32_t bits = result; bits != 0; bits &= bits - 1) {
    inst->bg.PrefetchBucket(i1 + LowestSetBit(bits) + 1);
  }

  for (uint32_t bits = result; bits != 0; bits &= bits - 1) {
    const int j = LowestSetBit(bits) + 1;  // 1-based slot
    const int bucket = i1 + j;
    const uint64_t c = static_cast<uint64_t>(inst->adapter.GetCount(bucket));
    DPSS_DCHECK(c >= 1 && c == static_cast<uint64_t>(inst->bg.BucketSize(bucket)));
    // Accept the bucket with pv/pj, where pv = min{1, 2^{bucket+1}·c/W} is
    // its true sampling probability and pj = min{m², 2^{j+1}·c}/m² the
    // table's (always >= pv by the choice of i1).
    const uint64_t aj = table_.SlotProbNumerator(j, static_cast<int>(c));
    bool hit;
    bool resolved = false;
    if (ctx.fast && MulFits(ctx.wden128, c) &&
        ShiftLeftFits(ctx.wden128 * c, bucket + 1) &&
        MulFits(ctx.wnum128, aj)) {
      const U128 pv_num = (ctx.wden128 * c) << (bucket + 1);
      const U128 pv_den = ctx.wnum128;
      const U128 min_pv = pv_num >= pv_den ? pv_den : pv_num;
      if (MulFits(min_pv, m_sq)) {
        const U128 num = min_pv * m_sq;
        const U128 den = pv_den * aj;
        DPSS_DCHECK(num <= den);
        hit = SampleBernoulliRational(num, den, *ctx.rng);
        resolved = true;
      }
    }
    if (!resolved) {
      const BigUInt pv_num = BigUInt::MulU64(*ctx.wden, c) << (bucket + 1);
      const BigUInt& pv_den = *ctx.wnum;
      const BigUInt num = BigUInt::MulU64(
          BigUInt::Compare(pv_num, pv_den) >= 0 ? pv_den : pv_num, m_sq);
      const BigUInt den = BigUInt::MulU64(pv_den, aj);
      DPSS_DCHECK(BigUInt::Compare(num, den) <= 0);
      hit = SampleBernoulliRational(num, den, *ctx.rng);
    }
    if (hit) candidates.push_back(static_cast<uint64_t>(bucket));
  }
  ExtractItems(inst, candidates, ctx, out);
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

void HaltStructure::CheckInstanceInvariants(const Instance* inst) const {
  uint64_t total = 0;
  for (int b = 0; b < inst->bg.universe(); ++b) {
    const uint64_t sz = inst->bg.BucketSize(b);
    total += sz;
    DPSS_CHECK(inst->bg.nonempty_buckets().Contains(b) == (sz > 0));
    const BucketStructure::BucketView view = inst->bg.Bucket(b);
    for (uint32_t i = 0; i < view.size(); ++i) {
      const Entry e = view.EntryAt(i);
      DPSS_CHECK(!e.weight.IsZero());
      DPSS_CHECK(e.weight.BucketIndex() == b);
    }
    if (inst->level < 3) {
      if (sz > 0) {
        const Instance* child =
            inst->children[inst->bg.GroupOfBucket(b)].get();
        DPSS_CHECK(child != nullptr);
        const Location loc = inst->synthetic_loc[b];
        DPSS_CHECK(loc.IsValid());
        const Entry syn = child->bg.EntryAt(loc);
        DPSS_CHECK(syn.handle == static_cast<uint64_t>(b));
        DPSS_CHECK(syn.weight ==
                   Weight(sz, static_cast<uint32_t>(b) + 1));
      }
    } else {
      DPSS_CHECK(inst->adapter.GetCount(b) == static_cast<int>(sz));
    }
  }
  DPSS_CHECK(total == inst->bg.size());
  // Group bitmap consistency and child sizes.
  for (int j = 0; j < inst->bg.num_groups(); ++j) {
    uint64_t nonempty = 0;
    for (int b = j * inst->bg.group_width();
         b < std::min((j + 1) * inst->bg.group_width(), inst->bg.universe());
         ++b) {
      nonempty += inst->bg.BucketSize(b) > 0 ? 1 : 0;
    }
    DPSS_CHECK(inst->bg.nonempty_groups().Contains(j) == (nonempty > 0));
    if (inst->level < 3 && inst->children[j] != nullptr) {
      DPSS_CHECK(inst->children[j]->bg.size() == nonempty);
      CheckInstanceInvariants(inst->children[j].get());
    } else if (inst->level < 3) {
      DPSS_CHECK(nonempty == 0);
    }
  }
}

void HaltStructure::CheckInvariants() const {
  CheckInstanceInvariants(root_.get());
}

size_t HaltStructure::ApproxMemoryBytes() const {
  // The shared arena backs every instance's slab/headers/bitmaps; counted
  // once here (BucketStructure::MemoryBytes excludes a borrowed arena).
  return InstanceBytes(root_.get()) + arena_->capacity_bytes() +
         table_.CacheBytes() + sizeof(*this);
}

size_t HaltStructure::InstanceBytes(const Instance* inst) const {
  size_t bytes = sizeof(*inst);
  bytes += inst->synthetic_loc.capacity() * sizeof(Location);
  bytes += inst->children.capacity() * sizeof(void*);
  bytes += inst->bg.MemoryBytes();
  for (const auto& child : inst->children) {
    if (child != nullptr) bytes += InstanceBytes(child.get());
  }
  return bytes;
}

namespace {

void AccumulateSlabStats(const BucketStructure::SlabStats& in,
                         BucketStructure::SlabStats* out) {
  out->capacity_bytes += in.capacity_bytes;
  out->extent_bytes += in.extent_bytes;
  out->live_bytes += in.live_bytes;
  out->free_bytes += in.free_bytes;
  out->arena_page_count += in.arena_page_count;
  out->arena_dirty_pages += in.arena_dirty_pages;
}

}  // namespace

BucketStructure::SlabStats HaltStructure::SlabStatsTotal() const {
  BucketStructure::SlabStats total;
  // Plain recursion over the (at most three-level) instance tree.
  struct Walker {
    static void Walk(const Instance* inst, BucketStructure::SlabStats* out) {
      AccumulateSlabStats(inst->bg.slab_stats(), out);
      for (const auto& child : inst->children) {
        if (child != nullptr) Walk(child.get(), out);
      }
    }
  };
  Walker::Walk(root_.get(), &total);
  // The shared arena's page footprint, counted once for the whole tree
  // (per-instance slab_stats leave these fields zero for a borrowed arena).
  total.arena_page_count = arena_->page_count();
  total.arena_dirty_pages = arena_->DirtyPageCount();
  return total;
}

}  // namespace dpss
