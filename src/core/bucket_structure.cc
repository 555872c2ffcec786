#include "core/bucket_structure.h"

#include <algorithm>
#include <cstring>

namespace dpss {

BucketStructure::BucketStructure(int universe, int group_width,
                                 RelocationListener* listener, Arena* arena)
    : universe_(universe),
      group_width_(group_width),
      num_groups_((universe + group_width - 1) / group_width),
      owned_arena_(arena == nullptr ? std::make_unique<Arena>() : nullptr),
      arena_(arena == nullptr ? owned_arena_.get() : arena),
      free_extents_(kNumSizeClasses),
      listener_(listener) {
  DPSS_CHECK(universe >= 1 && universe <= BitmapSortedList::kMaxUniverse);
  DPSS_CHECK(group_width >= 1);
  // Arena allocations are zero-filled, so the bitmaps start empty and every
  // header starts {offset 0, size 0, capacity 0} without explicit init.
  bitmaps_off_ = arena_->Allocate(2 * kBitmapBlockBytes);
  headers_off_ = arena_->Allocate(universe_ * sizeof(BucketHeader));
}

void BucketStructure::GrowSlab(uint64_t needed) {
  uint64_t new_capacity = std::max<uint64_t>(slab_capacity_ * 2, 64);
  while (new_capacity < slab_used_ + needed) new_capacity *= 2;
  // Allocate first (it may move the whole arena), then resolve offsets.
  const uint64_t new_off = arena_->Allocate(new_capacity * sizeof(PackedEntry));
  if (slab_used_ > 0) {
    std::memcpy(arena_->base() + new_off, arena_->base() + slab_off_,
                slab_used_ * sizeof(PackedEntry));
  }
  // The old slab block stays behind in the arena unreferenced. Doubling
  // bounds the total waste at 2x live, same as the heap-vector regime.
  slab_off_ = new_off;
  slab_capacity_ = new_capacity;
}

uint64_t BucketStructure::AllocExtent(uint32_t capacity) {
  std::vector<uint64_t>& fl = free_extents_[SizeClass(capacity)];
  if (!fl.empty()) {
    const uint64_t offset = fl.back();
    fl.pop_back();
    free_extent_entries_ -= capacity;
    return offset;
  }
  if (slab_used_ + capacity > slab_capacity_) GrowSlab(capacity);
  const uint64_t offset = slab_used_;
  slab_used_ += capacity;
  // Extent capacities are multiples of kMinExtentEntries and the slab base
  // is 64-byte-aligned, so every extent starts on a cache-line boundary.
  DPSS_DCHECK(offset % kMinExtentEntries == 0);
  return offset;
}

void BucketStructure::GrowBucket(int bucket) {
  if (headers()[bucket].capacity == 0) {
    // Allocate before taking the header reference: AllocExtent may move the
    // arena that holds the headers.
    const uint64_t offset = AllocExtent(kMinExtentEntries);
    BucketHeader& h = headers()[bucket];
    h.capacity = kMinExtentEntries;
    h.offset = offset;
    MarkHeaderDirty(bucket);
    return;
  }
  const uint32_t old_capacity = headers()[bucket].capacity;
  const uint64_t old_offset = headers()[bucket].offset;
  const uint32_t new_capacity = old_capacity * 2;
  // Allocate first: AllocExtent may move the arena, and the copy below must
  // read the old extent from the (possibly new) base.
  const uint64_t new_offset = AllocExtent(new_capacity);
  BucketHeader& h = headers()[bucket];
  std::memcpy(slab() + new_offset, slab() + old_offset,
              h.size * sizeof(PackedEntry));
  MarkEntriesDirty(new_offset, h.size);
  h.offset = new_offset;
  h.capacity = new_capacity;
  MarkHeaderDirty(bucket);
  free_extents_[SizeClass(old_capacity)].push_back(old_offset);
  free_extent_entries_ += old_capacity;
}

BucketStructure::Location BucketStructure::Insert(uint64_t handle, Weight w) {
  DPSS_CHECK(!w.IsZero());
  const int bucket = w.BucketIndex();
  DPSS_CHECK(bucket < universe_);
  if (headers()[bucket].size == 0) {
    buckets_bitmap().Insert(bucket);
    groups_bitmap().Insert(GroupOfBucket(bucket));
    MarkBitmapsDirty();
  }
  if (headers()[bucket].size == headers()[bucket].capacity) GrowBucket(bucket);
  BucketHeader& h = headers()[bucket];
  slab()[h.offset + h.size] = PackedEntry{handle, w.mult};
  MarkEntriesDirty(h.offset + h.size, 1);
  DPSS_DCHECK(ExpFor(bucket, w.mult) == w.exp);
  ++size_;
  MarkHeaderDirty(bucket);
  return Location{bucket, h.size++};
}

void BucketStructure::Erase(Location loc) {
  DPSS_CHECK(loc.IsValid() && loc.bucket < universe_);
  BucketHeader& h = headers()[loc.bucket];
  DPSS_CHECK(loc.pos < h.size);
  const uint32_t last = h.size - 1;
  if (loc.pos != last) {
    slab()[h.offset + loc.pos] = slab()[h.offset + last];
    MarkEntriesDirty(h.offset + loc.pos, 1);
    if (listener_ != nullptr) {
      listener_->OnRelocate(slab()[h.offset + loc.pos].handle,
                            Location{loc.bucket, loc.pos});
    }
  }
  h.size = last;
  MarkHeaderDirty(loc.bucket);
  --size_;
  if (h.size == 0) {
    // The bucket keeps its extent for the next insertion — churn at a
    // stable size distribution then never touches an allocator.
    buckets_bitmap().Erase(loc.bucket);
    // Deactivate the group iff no other bucket in it is non-empty.
    const int g = GroupOfBucket(loc.bucket);
    const int lo = g * group_width_;
    const int hi = std::min((g + 1) * group_width_ - 1, universe_ - 1);
    const int next = nonempty_buckets().Ceiling(lo);
    if (next == -1 || next > hi) groups_bitmap().Erase(g);
    MarkBitmapsDirty();
  }
}

void BucketStructure::SetWeight(Location loc, Weight w) {
  DPSS_CHECK(loc.IsValid() && loc.bucket < universe_);
  DPSS_CHECK(!w.IsZero() && w.BucketIndex() == loc.bucket);
  BucketHeader& h = headers()[loc.bucket];
  DPSS_CHECK(loc.pos < h.size);
  slab()[h.offset + loc.pos].mult = w.mult;
  MarkEntriesDirty(h.offset + loc.pos, 1);
}

void BucketStructure::CollectUpTo(int max_bucket,
                                  std::vector<Entry>* out) const {
  if (max_bucket < 0 || Empty()) return;
  const int cap = std::min(max_bucket, universe_ - 1);
  const BitmapConstRef nonempty = nonempty_buckets();
  for (int i = nonempty.Min(); i != -1 && i <= cap; i = nonempty.Next(i)) {
    const int next = nonempty.Next(i);
    if (next != -1 && next <= cap) PrefetchBucket(next);
    const BucketHeader& h = headers()[i];
    const PackedEntry* e = slab() + h.offset;
    for (uint32_t k = 0; k < h.size; ++k) {
      out->push_back(Entry{e[k].handle, WeightFor(i, e[k].mult)});
    }
  }
}

void BucketStructure::CollectFrom(int min_bucket,
                                  std::vector<Entry>* out) const {
  if (Empty()) return;
  const int lo = std::max(min_bucket, 0);
  if (lo >= universe_) return;
  const BitmapConstRef nonempty = nonempty_buckets();
  for (int i = nonempty.Ceiling(lo); i != -1; i = nonempty.Next(i)) {
    const int next = nonempty.Next(i);
    if (next != -1) PrefetchBucket(next);
    const BucketHeader& h = headers()[i];
    const PackedEntry* e = slab() + h.offset;
    for (uint32_t k = 0; k < h.size; ++k) {
      out->push_back(Entry{e[k].handle, WeightFor(i, e[k].mult)});
    }
  }
}

void BucketStructure::AppendHandlesUpTo(int max_bucket,
                                        std::vector<uint64_t>* out) const {
  if (max_bucket < 0 || Empty()) return;
  const int cap = std::min(max_bucket, universe_ - 1);
  const BitmapConstRef nonempty = nonempty_buckets();
  size_t total = 0;
  for (int i = nonempty.Min(); i != -1 && i <= cap; i = nonempty.Next(i)) {
    total += headers()[i].size;
  }
  out->reserve(out->size() + total);
  for (int i = nonempty.Min(); i != -1 && i <= cap; i = nonempty.Next(i)) {
    const int next = nonempty.Next(i);
    if (next != -1 && next <= cap) PrefetchBucket(next);
    const BucketHeader& h = headers()[i];
    const PackedEntry* e = slab() + h.offset;
    for (uint32_t k = 0; k < h.size; ++k) out->push_back(e[k].handle);
  }
}

void BucketStructure::AppendHandlesFrom(int min_bucket,
                                        std::vector<uint64_t>* out) const {
  if (Empty()) return;
  const int lo = std::max(min_bucket, 0);
  if (lo >= universe_) return;
  const BitmapConstRef nonempty = nonempty_buckets();
  size_t total = 0;
  for (int i = nonempty.Ceiling(lo); i != -1; i = nonempty.Next(i)) {
    total += headers()[i].size;
  }
  out->reserve(out->size() + total);
  for (int i = nonempty.Ceiling(lo); i != -1; i = nonempty.Next(i)) {
    const int next = nonempty.Next(i);
    if (next != -1) PrefetchBucket(next);
    const BucketHeader& h = headers()[i];
    const PackedEntry* e = slab() + h.offset;
    for (uint32_t k = 0; k < h.size; ++k) out->push_back(e[k].handle);
  }
}

BucketStructure::SlabStats BucketStructure::slab_stats() const {
  SlabStats s;
  s.capacity_bytes = slab_capacity_ * sizeof(PackedEntry);
  s.live_bytes = size_ * sizeof(PackedEntry);
  s.free_bytes = free_extent_entries_ * sizeof(PackedEntry);
  size_t extent_entries = 0;
  for (int b = 0; b < universe_; ++b) extent_entries += headers()[b].capacity;
  s.extent_bytes = extent_entries * sizeof(PackedEntry);
  if (owned_arena_ != nullptr) {
    s.arena_page_count = arena_->page_count();
    s.arena_dirty_pages = arena_->DirtyPageCount();
  }
  return s;
}

size_t BucketStructure::MemoryBytes() const {
  // A shared arena is counted once by its owner, not per structure.
  size_t bytes =
      owned_arena_ != nullptr ? owned_arena_->capacity_bytes() : 0;
  bytes += free_extents_.capacity() * sizeof(std::vector<uint64_t>);
  for (const auto& fl : free_extents_) bytes += fl.capacity() * sizeof(uint64_t);
  return bytes;
}

}  // namespace dpss
