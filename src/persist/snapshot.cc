// Snapshot container implementation, plus the default Sampler::SaveTo
// (declared in core/sampler.h; defined here next to the frame format it
// writes).

#include "persist/snapshot.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "core/arena.h"
#include "persist/crc32c.h"
#include "util/little_endian.h"

namespace dpss {

// --- Sampler::SaveTo (interface default) ----------------------------------

Status Sampler::SaveTo(persist::SnapshotWriter* writer) const {
  if (writer == nullptr) {
    return InvalidArgumentError("null snapshot writer");
  }
  if (capabilities().snapshots) {
    std::string payload;
    Status st = Serialize(&payload);
    if (!st.ok()) return st;
    return writer->AddPayloadFrame(payload);
  }
  // No native format: fall back to the portable (id, weight) dump.
  std::vector<ItemRecord> items;
  Status st = DumpItems(&items);
  if (!st.ok()) return st;
  return writer->AddGenericFrame(items);
}

namespace persist {

namespace {

// Sanity cap on a single frame (the format field is u32; this guards
// readers against absurd lengths from corrupt input long before any
// allocation).
constexpr uint32_t kMaxFrameLen = 0xf0000000u;

// Two spec slots are reserved: the byte after `deamortized_rebuild` and
// the trailing u32. They held SamplerSpec fields that were removed; the
// writer keeps their old default (1) so images stay byte-identical, and
// the reader skips them.
void EncodeSpec(const SamplerSpec& spec, std::string* out) {
  AppendU64(out, spec.seed);
  AppendU8(out, spec.deamortized_rebuild ? 1 : 0);
  AppendU8(out, 1);  // reserved
  AppendU32(out, static_cast<uint32_t>(spec.migrate_per_update));
  AppendU64(out, spec.fixed_alpha.num);
  AppendU64(out, spec.fixed_alpha.den);
  AppendU64(out, spec.fixed_beta.num);
  AppendU64(out, spec.fixed_beta.den);
  AppendU32(out, static_cast<uint32_t>(spec.num_shards));
  AppendU32(out, 1);  // reserved
}

bool DecodeSpec(std::string_view in, size_t* pos, SamplerSpec* spec) {
  uint8_t deam = 0, reserved8 = 0;
  uint32_t migrate = 0, shards = 0, reserved32 = 0;
  if (!ReadU64(in, pos, &spec->seed) || !ReadU8(in, pos, &deam) ||
      !ReadU8(in, pos, &reserved8) || !ReadU32(in, pos, &migrate) ||
      !ReadU64(in, pos, &spec->fixed_alpha.num) ||
      !ReadU64(in, pos, &spec->fixed_alpha.den) ||
      !ReadU64(in, pos, &spec->fixed_beta.num) ||
      !ReadU64(in, pos, &spec->fixed_beta.den) ||
      !ReadU32(in, pos, &shards) || !ReadU32(in, pos, &reserved32)) {
    return false;
  }
  spec->deamortized_rebuild = deam != 0;
  spec->migrate_per_update = static_cast<int>(migrate);
  spec->num_shards = static_cast<int>(shards);
  return true;
}

void EncodeBigUInt(const BigUInt& v, std::string* out) {
  AppendU16(out, static_cast<uint16_t>(v.WordCount()));
  for (int i = 0; i < v.WordCount(); ++i) AppendU64(out, v.Word(i));
}

bool DecodeBigUInt(std::string_view in, size_t* pos, BigUInt* out) {
  uint16_t words = 0;
  if (!ReadU16(in, pos, &words)) return false;
  BigUInt v;
  for (int i = words - 1; i >= 0; --i) {
    uint64_t w = 0;
    // Words are stored little-endian; rebuild from the top so each shift
    // makes room for the next lower word.
    size_t p = *pos + static_cast<size_t>(i) * 8;
    if (!ReadU64(in, &p, &w)) return false;
    v = (v << 64) + BigUInt(w);
  }
  *pos += static_cast<size_t>(words) * 8;
  if (*pos > in.size()) return false;
  *out = std::move(v);
  return true;
}

// --- Arena frame metadata codec -------------------------------------------
//
// kArenaImage metadata:
//   image_count(4) { roots_len(4) roots used(8) page_count(8)
//                    masked_crc(4) * page_count }*
// kArenaDelta metadata is the same prefixed with base_epoch(8), and each
// image adds dirty_count(8) and stores (page_index(8), masked_crc(4))
// pairs instead of the implicit-index CRC run.

static_assert(kArenaFileAlign == Arena::kPageSize,
              "raw-page file alignment must equal the arena page size");

struct ArenaPageRef {
  uint64_t index = 0;  ///< Page index within the image's full extent.
  uint32_t crc = 0;    ///< Unmasked CRC32C of the raw 4-KiB page.
};

struct ArenaImageMeta {
  std::string_view roots;            // points into the frame payload
  uint64_t used_bytes = 0;
  uint64_t page_count = 0;           // pages in the full extent
  std::vector<ArenaPageRef> stored;  // pages present in this file, in order
};

struct ArenaFrameMeta {
  uint64_t base_epoch = 0;   // deltas only
  uint64_t total_stored = 0; // Σ stored pages — the raw region's size
  std::vector<ArenaImageMeta> images;
};

// Sanity cap: no real sampler splits into this many arenas; corrupt input
// must not drive the reserve below.
constexpr uint32_t kMaxArenaImages = 1u << 20;

Status ParseArenaFrameMeta(FrameType type, std::string_view meta,
                           ArenaFrameMeta* out) {
  const bool delta = type == FrameType::kArenaDelta;
  size_t pos = 0;
  uint32_t image_count = 0;
  if (delta && !ReadU64(meta, &pos, &out->base_epoch)) {
    return BadSnapshotError("truncated arena frame metadata");
  }
  if (!ReadU32(meta, &pos, &image_count) || image_count > kMaxArenaImages) {
    return BadSnapshotError("malformed arena frame metadata");
  }
  out->images.reserve(image_count);
  for (uint32_t i = 0; i < image_count; ++i) {
    ArenaImageMeta im;
    uint32_t roots_len = 0;
    if (!ReadU32(meta, &pos, &roots_len) || pos + roots_len > meta.size()) {
      return BadSnapshotError("truncated arena image roots");
    }
    im.roots = meta.substr(pos, roots_len);
    pos += roots_len;
    if (!ReadU64(meta, &pos, &im.used_bytes) ||
        !ReadU64(meta, &pos, &im.page_count)) {
      return BadSnapshotError("truncated arena image metadata");
    }
    // Reject used_bytes in the top partial page of the u64 range first:
    // PageRoundUp would wrap to 0 there, letting a huge used_bytes pair
    // with page_count == 0 and sail past the cross-check (the loader would
    // then size dirty bitmaps / validate extents against a fictitious
    // multi-exabyte arena).
    if (im.used_bytes > UINT64_MAX - (Arena::kPageSize - 1)) {
      return BadSnapshotError("arena used bytes out of range");
    }
    if (im.page_count != Arena::PageRoundUp(im.used_bytes) / Arena::kPageSize) {
      return BadSnapshotError("arena page count does not match used bytes");
    }
    uint64_t stored_count = im.page_count;
    if (delta && (!ReadU64(meta, &pos, &stored_count) ||
                  stored_count > im.page_count)) {
      return BadSnapshotError("arena delta stores more pages than exist");
    }
    // Each stored page costs >= 4 metadata bytes, so a count that cannot
    // fit in the remaining payload is corrupt — reject before reserving.
    const uint64_t entry_bytes = delta ? 12 : 4;
    if (stored_count > (meta.size() - pos) / entry_bytes) {
      return BadSnapshotError("truncated arena page table");
    }
    im.stored.reserve(stored_count);
    uint64_t prev = 0;
    for (uint64_t p = 0; p < stored_count; ++p) {
      ArenaPageRef ref;
      if (delta) {
        if (!ReadU64(meta, &pos, &ref.index)) {
          return BadSnapshotError("truncated arena page table");
        }
        if (ref.index >= im.page_count || (p > 0 && ref.index <= prev)) {
          return BadSnapshotError("arena delta page indices not ascending");
        }
        prev = ref.index;
      } else {
        ref.index = p;
      }
      uint32_t masked = 0;
      if (!ReadU32(meta, &pos, &masked)) {
        return BadSnapshotError("truncated arena page table");
      }
      ref.crc = UnmaskCrc(masked);
      im.stored.push_back(ref);
    }
    out->total_stored += stored_count;
    out->images.push_back(std::move(im));
  }
  if (pos != meta.size()) {
    return BadSnapshotError("trailing bytes in arena frame metadata");
  }
  return Status::Ok();
}

std::string_view MapView(MappedFile& map) {
  return map.size() == 0 ? std::string_view()
                         : std::string_view(map.data(), map.size());
}

// Verifies the per-page CRCs of a full arena-image frame (when asked) and
// stages one ArenaLoad per image. With `map` the arenas adopt copy-on-write
// slices of the mapping (no page copies; each load keeps the mapping
// alive); without it the pages are copied into owned heap arenas.
Status StageArenaLoads(std::string_view file,
                       const SnapshotReader::Frame& frame,
                       std::shared_ptr<MappedFile> map, bool verify_pages,
                       std::vector<ArenaLoad>* loads) {
  ArenaFrameMeta meta;
  Status st =
      ParseArenaFrameMeta(FrameType::kArenaImage, frame.payload, &meta);
  if (!st.ok()) return st;
  uint64_t region = frame.pages_offset;
  for (const ArenaImageMeta& im : meta.images) {
    if (verify_pages) {
      for (uint64_t p = 0; p < im.stored.size(); ++p) {
        const std::string_view page(
            file.data() + region + p * Arena::kPageSize, Arena::kPageSize);
        if (Crc32c(page) != im.stored[p].crc) {
          return BadSnapshotError("arena page checksum mismatch");
        }
      }
    }
    const uint64_t extent = im.page_count * Arena::kPageSize;
    ArenaLoad load;
    load.roots.assign(im.roots);
    if (map != nullptr) {
      load.arena = Arena::Adopt(
          const_cast<char*>(file.data()) + region, im.used_bytes, map);
    } else {
      Arena arena;
      arena.ResetForLoad(im.used_bytes);
      if (extent != 0) {
        std::memcpy(arena.base(), file.data() + region, extent);
      }
      load.arena = std::move(arena);
    }
    region += extent;
    loads->push_back(std::move(load));
  }
  return Status::Ok();
}

}  // namespace

// --- SnapshotWriter -------------------------------------------------------

void SnapshotWriter::AppendFrame(FrameType type, std::string_view payload) {
  std::string head;
  AppendU8(&head, static_cast<uint8_t>(type));
  AppendU32(&head, static_cast<uint32_t>(payload.size()));
  out_->append(head);
  out_->append(payload);
  // CRC over the tag and the payload (not the length: a corrupt length
  // already fails the envelope parse or the CRC offset).
  const uint32_t crc =
      Crc32c(payload, Crc32c(std::string_view(head.data(), 1)));
  AppendU32(out_, MaskCrc(crc));
}

Status SnapshotWriter::BeginSnapshot(const Sampler& s,
                                     const SamplerSpec& spec) {
  if (out_ == nullptr) return InvalidArgumentError("null output string");
  if (begun_) return InvalidArgumentError("BeginSnapshot called twice");
  if (version_ != kContainerVersion && version_ != kContainerVersionArena) {
    return InvalidArgumentError("unknown container version for writing");
  }
  if (version_ == kContainerVersionArena && !out_->empty()) {
    // Raw-page alignment is relative to the start of the string, which
    // must therefore be the start of the file.
    return InvalidArgumentError("arena containers must start the string");
  }
  begun_ = true;
  AppendU64(out_, kContainerMagic);
  std::string header;
  AppendU32(&header, version_);
  const std::string name = s.name();
  AppendU16(&header, static_cast<uint16_t>(name.size()));
  header.append(name);
  AppendU64(&header, s.size());
  EncodeBigUInt(s.TotalWeight(), &header);
  EncodeSpec(spec, &header);
  AppendFrame(FrameType::kHeader, header);
  return Status::Ok();
}

Status SnapshotWriter::AddPayloadFrame(std::string_view bytes) {
  if (!begun_ || finished_) {
    return InvalidArgumentError("payload frame outside Begin/Finish");
  }
  if (data_frames_ != 0) {
    return InvalidArgumentError("container already holds a data frame");
  }
  if (bytes.size() > kMaxFrameLen) {
    return InvalidArgumentError("snapshot payload exceeds the frame limit");
  }
  AppendFrame(FrameType::kPayload, bytes);
  ++data_frames_;
  payload_bytes_ += bytes.size();
  return Status::Ok();
}

Status SnapshotWriter::AddGenericFrame(const std::vector<ItemRecord>& items) {
  if (!begun_ || finished_) {
    return InvalidArgumentError("generic frame outside Begin/Finish");
  }
  if (data_frames_ != 0) {
    return InvalidArgumentError("container already holds a data frame");
  }
  std::string payload;
  EncodeItemRecords(items, &payload);
  if (payload.size() > kMaxFrameLen) {
    return InvalidArgumentError("snapshot payload exceeds the frame limit");
  }
  AppendFrame(FrameType::kGeneric, payload);
  ++data_frames_;
  payload_bytes_ += payload.size();
  return Status::Ok();
}

Status SnapshotWriter::AddArenaFrame(
    FrameType type, std::string_view meta,
    const std::vector<const std::string*>& pages) {
  if (!begun_ || finished_) {
    return InvalidArgumentError("arena frame outside Begin/Finish");
  }
  if (data_frames_ != 0) {
    return InvalidArgumentError("container already holds a data frame");
  }
  if (version_ != kContainerVersionArena) {
    return InvalidArgumentError("arena frames need a version-2 writer");
  }
  if (type != FrameType::kArenaImage && type != FrameType::kArenaDelta) {
    return InvalidArgumentError("not an arena frame type");
  }
  if (meta.size() > kMaxFrameLen) {
    return InvalidArgumentError("snapshot payload exceeds the frame limit");
  }
  for (const std::string* page : pages) {
    if (page == nullptr || page->size() != Arena::kPageSize) {
      return InvalidArgumentError("arena pages must be whole 4-KiB units");
    }
  }
  AppendFrame(type, meta);
  ++data_frames_;
  payload_bytes_ += meta.size();
  // Zero-pad so the raw pages start on a 4-KiB file offset — the region a
  // recovery mapping hands to Arena::Adopt must be page-aligned.
  out_->resize(
      (out_->size() + kArenaFileAlign - 1) / kArenaFileAlign * kArenaFileAlign,
      '\0');
  for (const std::string* page : pages) out_->append(*page);
  return Status::Ok();
}

Status SnapshotWriter::Finish() {
  if (!begun_ || finished_) {
    return InvalidArgumentError("Finish outside an open snapshot");
  }
  if (data_frames_ == 0) {
    return InvalidArgumentError("container holds no data frame");
  }
  finished_ = true;
  std::string seal;
  AppendU32(&seal, data_frames_);
  AppendU64(&seal, payload_bytes_);
  AppendFrame(FrameType::kEnd, seal);
  return Status::Ok();
}

// --- SnapshotReader -------------------------------------------------------

Status SnapshotReader::ReadHeader(SnapshotInfo* info) {
  if (info == nullptr) return InvalidArgumentError("null info pointer");
  if (header_done_) return InvalidArgumentError("header already read");
  uint64_t magic = 0;
  if (!ReadU64(bytes_, &pos_, &magic) || magic != kContainerMagic) {
    return BadSnapshotError("bad magic / not a DPSSNP01 container");
  }
  StatusOr<Frame> frame = NextFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type != FrameType::kHeader) {
    return BadSnapshotError("container does not start with a header frame");
  }
  std::string_view h = frame->payload;
  size_t pos = 0;
  uint16_t name_len = 0;
  if (!ReadU32(h, &pos, &info->version)) {
    return BadSnapshotError("truncated header frame");
  }
  if (info->version != kContainerVersion &&
      info->version != kContainerVersionArena) {
    return BadSnapshotError(
        "unknown container version (format bumps need an explicit reader)");
  }
  version_ = info->version;
  if (!ReadU16(h, &pos, &name_len) || pos + name_len > h.size()) {
    return BadSnapshotError("truncated backend name");
  }
  info->backend.assign(h.data() + pos, name_len);
  pos += name_len;
  if (!ReadU64(h, &pos, &info->size) ||
      !DecodeBigUInt(h, &pos, &info->total_weight) ||
      !DecodeSpec(h, &pos, &info->spec) || pos != h.size()) {
    return BadSnapshotError("malformed header frame");
  }
  header_done_ = true;
  return Status::Ok();
}

StatusOr<SnapshotReader::Frame> SnapshotReader::NextFrame() {
  if (end_seen_) return BadSnapshotError("read past the end frame");
  uint8_t type = 0;
  uint32_t len = 0;
  if (!ReadU8(bytes_, &pos_, &type) || !ReadU32(bytes_, &pos_, &len)) {
    return BadSnapshotError("truncated frame envelope");
  }
  if (len > kMaxFrameLen || pos_ + len + 4 > bytes_.size()) {
    return BadSnapshotError("frame length exceeds the container");
  }
  const std::string_view payload = bytes_.substr(pos_, len);
  pos_ += len;
  uint32_t stored = 0;
  ReadU32(bytes_, &pos_, &stored);
  const char tag = static_cast<char>(type);
  const uint32_t actual =
      Crc32c(payload, Crc32c(std::string_view(&tag, 1)));
  if (UnmaskCrc(stored) != actual) {
    return BadSnapshotError("frame checksum mismatch");
  }
  Frame frame;
  frame.payload = payload;
  switch (type) {
    case static_cast<uint8_t>(FrameType::kHeader):
      frame.type = FrameType::kHeader;
      break;
    case static_cast<uint8_t>(FrameType::kPayload):
    case static_cast<uint8_t>(FrameType::kGeneric):
      frame.type = static_cast<FrameType>(type);
      ++data_frames_;
      payload_bytes_ += payload.size();
      break;
    case static_cast<uint8_t>(FrameType::kArenaImage):
    case static_cast<uint8_t>(FrameType::kArenaDelta): {
      if (version_ != kContainerVersionArena) {
        return BadSnapshotError("arena frame in a version-1 container");
      }
      frame.type = static_cast<FrameType>(type);
      ++data_frames_;
      payload_bytes_ += payload.size();
      // The raw pages sit between this frame and the next, starting at the
      // next 4-KiB file offset. Parse the metadata to learn how many, and
      // bounds-check the region (per-page CRCs are the loader's job).
      ArenaFrameMeta meta;
      Status st = ParseArenaFrameMeta(frame.type, payload, &meta);
      if (!st.ok()) return st;
      const uint64_t aligned =
          (pos_ + kArenaFileAlign - 1) / kArenaFileAlign * kArenaFileAlign;
      const uint64_t raw_bytes = meta.total_stored * Arena::kPageSize;
      if (aligned > bytes_.size() || raw_bytes > bytes_.size() - aligned) {
        return BadSnapshotError("arena pages exceed the container");
      }
      frame.pages_offset = aligned;
      frame.pages_stored = meta.total_stored;
      pos_ = aligned + raw_bytes;
      break;
    }
    case static_cast<uint8_t>(FrameType::kEnd): {
      frame.type = FrameType::kEnd;
      size_t pos = 0;
      uint32_t frames = 0;
      uint64_t bytes = 0;
      if (!ReadU32(payload, &pos, &frames) ||
          !ReadU64(payload, &pos, &bytes) || pos != payload.size() ||
          frames != data_frames_ || bytes != payload_bytes_) {
        return BadSnapshotError("end frame does not match the container");
      }
      if (pos_ != bytes_.size()) {
        return BadSnapshotError("trailing bytes after the end frame");
      }
      end_seen_ = true;
      break;
    }
    default:
      return BadSnapshotError("unknown frame type");
  }
  return frame;
}

// --- Generic record codec -------------------------------------------------

void EncodeItemRecords(const std::vector<ItemRecord>& items,
                       std::string* out) {
  AppendU64(out, items.size());
  for (const ItemRecord& rec : items) {
    AppendU64(out, rec.id);
    AppendU64(out, rec.weight.mult);
    AppendU32(out, rec.weight.exp);
  }
}

Status DecodeItemRecords(std::string_view payload,
                         std::vector<ItemRecord>* out) {
  if (out == nullptr) return InvalidArgumentError("null output pointer");
  size_t pos = 0;
  uint64_t count = 0;
  if (!ReadU64(payload, &pos, &count) || count > payload.size() / 20 ||
      pos + count * 20 != payload.size()) {
    return BadSnapshotError("generic frame length mismatch");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ItemRecord rec;
    if (!ReadU64(payload, &pos, &rec.id) ||
        !ReadU64(payload, &pos, &rec.weight.mult) ||
        !ReadU32(payload, &pos, &rec.weight.exp)) {
      return BadSnapshotError("truncated generic record");
    }
    out->push_back(rec);
  }
  return Status::Ok();
}

// --- One-call drivers -----------------------------------------------------

Status SaveSampler(const Sampler& s, const SamplerSpec& spec,
                   std::string* out) {
  if (out == nullptr) return InvalidArgumentError("null output string");
  SnapshotWriter writer(out);
  Status st = writer.BeginSnapshot(s, spec);
  if (!st.ok()) return st;
  st = s.SaveTo(&writer);
  if (!st.ok()) return st;
  return writer.Finish();
}

Status ExportPortable(const Sampler& s, const SamplerSpec& spec,
                      std::string* out) {
  if (out == nullptr) return InvalidArgumentError("null output string");
  std::vector<ItemRecord> items;
  Status st = s.DumpItems(&items);
  if (!st.ok()) return st;
  SnapshotWriter writer(out);
  st = writer.BeginSnapshot(s, spec);
  if (!st.ok()) return st;
  st = writer.AddGenericFrame(items);
  if (!st.ok()) return st;
  return writer.Finish();
}

Status SaveSamplerToFile(const Sampler& s, const SamplerSpec& spec, Env* env,
                         const std::string& path) {
  if (env == nullptr) return InvalidArgumentError("null env");
  std::string bytes;
  Status st = SaveSampler(s, spec, &bytes);
  if (!st.ok()) return st;
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  st = (*file)->Append(bytes);
  if (!st.ok()) return st;
  st = (*file)->Sync();
  if (!st.ok()) return st;
  return (*file)->Close();
}

StatusOr<SnapshotInfo> ReadSnapshotInfo(std::string_view bytes) {
  SnapshotReader reader(bytes);
  SnapshotInfo info;
  Status st = reader.ReadHeader(&info);
  if (!st.ok()) return st;
  return info;
}

// --- v2 arena-image drivers -----------------------------------------------

namespace {

// Shared body of SaveSamplerArena / SaveSamplerArenaDelta: collect images,
// build the metadata payload (per-page CRC32C), and frame the container.
Status BuildArenaContainer(Sampler* s, const SamplerSpec& spec,
                           ArenaImageMode mode, uint64_t base_epoch,
                           std::string* out) {
  if (s == nullptr || out == nullptr) {
    return InvalidArgumentError("null argument");
  }
  if (!s->capabilities().arena_image) {
    return UnsupportedError("backend has no arena-image storage");
  }
  std::vector<ArenaImage> images;
  Status st = s->CollectArenaImages(mode, &images);
  if (!st.ok()) return st;
  const bool delta = mode == ArenaImageMode::kDirty;
  std::string meta;
  std::vector<const std::string*> pages;
  if (delta) AppendU64(&meta, base_epoch);
  AppendU32(&meta, static_cast<uint32_t>(images.size()));
  for (const ArenaImage& img : images) {
    AppendU32(&meta, static_cast<uint32_t>(img.roots.size()));
    meta.append(img.roots);
    AppendU64(&meta, img.used_bytes);
    AppendU64(&meta, img.page_count);
    if (delta) {
      AppendU64(&meta, img.pages.size());
    } else if (img.pages.size() != img.page_count) {
      return InvalidArgumentError("backend produced a partial full image");
    }
    for (size_t p = 0; p < img.pages.size(); ++p) {
      const auto& [index, bytes] = img.pages[p];
      if (bytes.size() != Arena::kPageSize || index >= img.page_count ||
          (!delta && index != p)) {
        return InvalidArgumentError("backend produced a malformed arena page");
      }
      if (delta) AppendU64(&meta, index);
      AppendU32(&meta, MaskCrc(Crc32c(bytes)));
      pages.push_back(&bytes);
    }
  }
  SnapshotWriter writer(out, kContainerVersionArena);
  st = writer.BeginSnapshot(*s, spec);
  if (!st.ok()) return st;
  st = writer.AddArenaFrame(
      delta ? FrameType::kArenaDelta : FrameType::kArenaImage, meta, pages);
  if (!st.ok()) return st;
  return writer.Finish();
}

}  // namespace

Status SaveSamplerArena(Sampler* s, const SamplerSpec& spec,
                        std::string* out) {
  return BuildArenaContainer(s, spec, ArenaImageMode::kFull, 0, out);
}

Status SaveSamplerArenaDelta(Sampler* s, const SamplerSpec& spec,
                             uint64_t base_epoch, std::string* out) {
  return BuildArenaContainer(s, spec, ArenaImageMode::kDirty, base_epoch, out);
}

Status WriteFileViaMap(Env* env, const std::string& path,
                       std::string_view bytes) {
  if (env == nullptr) return InvalidArgumentError("null env");
  // Create (or empty) the file, size it, then write through a shared
  // mapping with one Msync as the durability point.
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Close();
  if (!st.ok()) return st;
  st = env->TruncateFile(path, bytes.size());
  if (!st.ok()) return st;
  StatusOr<std::unique_ptr<MappedFile>> map =
      env->MapFile(path, MapMode::kShared);
  if (!map.ok()) {
    if (map.status().code() != StatusCode::kUnsupported) return map.status();
    // This env has no write-through mappings: plain buffered write.
    file = env->NewWritableFile(path, /*truncate=*/true);
    if (!file.ok()) return file.status();
    st = (*file)->Append(bytes);
    if (!st.ok()) return st;
    st = (*file)->Sync();
    if (!st.ok()) return st;
    return (*file)->Close();
  }
  if ((*map)->size() != bytes.size()) {
    return IoError("mapped file size does not match the write");
  }
  if (!bytes.empty()) {
    std::memcpy((*map)->data(), bytes.data(), bytes.size());
  }
  st = (*map)->Msync(0, bytes.size());
  if (!st.ok()) return st;
  // Msync flushes the dirty pages but not the file's metadata (the size
  // set by the truncate above, block allocations); without this fsync the
  // publishing rename could become durable around a short or sparse file.
  return (*map)->Sync();
}

Status ParseArenaContainer(std::shared_ptr<MappedFile> map,
                           bool verify_pages, SnapshotInfo* info,
                           std::vector<ArenaLoad>* loads) {
  if (map == nullptr || info == nullptr || loads == nullptr) {
    return InvalidArgumentError("null argument");
  }
  const std::string_view file = MapView(*map);
  SnapshotReader reader(file);
  Status st = reader.ReadHeader(info);
  if (!st.ok()) return st;
  if (info->version != kContainerVersionArena) {
    return BadSnapshotError("not an arena-image container");
  }
  bool applied = false;
  for (;;) {
    StatusOr<SnapshotReader::Frame> frame = reader.NextFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kEnd) break;
    if (applied || frame->type != FrameType::kArenaImage) {
      return BadSnapshotError(
          "arena container must hold exactly one arena-image frame");
    }
    st = StageArenaLoads(file, *frame, map, verify_pages, loads);
    if (!st.ok()) return st;
    applied = true;
  }
  if (!applied) return BadSnapshotError("container holds no data frame");
  return Status::Ok();
}

Status ApplyArenaDeltaFile(std::shared_ptr<MappedFile> map,
                           bool verify_pages,
                           uint64_t expected_base_epoch, SnapshotInfo* info,
                           std::vector<ArenaLoad>* loads) {
  if (map == nullptr || info == nullptr || loads == nullptr) {
    return InvalidArgumentError("null argument");
  }
  const std::string_view file = MapView(*map);
  SnapshotReader reader(file);
  SnapshotInfo delta_info;
  Status st = reader.ReadHeader(&delta_info);
  if (!st.ok()) return st;
  if (delta_info.version != kContainerVersionArena) {
    return BadSnapshotError("not an arena-image container");
  }
  bool applied = false;
  for (;;) {
    StatusOr<SnapshotReader::Frame> frame = reader.NextFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kEnd) break;
    if (applied || frame->type != FrameType::kArenaDelta) {
      return BadSnapshotError(
          "delta container must hold exactly one arena-delta frame");
    }
    ArenaFrameMeta meta;
    st = ParseArenaFrameMeta(FrameType::kArenaDelta, frame->payload, &meta);
    if (!st.ok()) return st;
    if (meta.base_epoch != expected_base_epoch) {
      return BadSnapshotError("delta does not extend the staged epoch");
    }
    if (meta.images.size() != loads->size()) {
      return BadSnapshotError("delta image count does not match the base");
    }
    uint64_t region = frame->pages_offset;
    for (size_t i = 0; i < meta.images.size(); ++i) {
      const ArenaImageMeta& im = meta.images[i];
      Arena& arena = (*loads)[i].arena;
      if (im.used_bytes < arena.used_bytes()) {
        return BadSnapshotError("delta shrinks an arena");
      }
      // Every page past the base extent was dirtied when it was first
      // bump-allocated, so a genuine delta stores all of them. This also
      // bounds GrowForLoad below to file-proportional allocations — a
      // corrupt used_bytes cannot demand an exabyte arena.
      if (im.page_count > arena.page_count() + im.stored.size()) {
        return BadSnapshotError("delta grows an arena past its stored pages");
      }
      if (verify_pages) {
        for (size_t p = 0; p < im.stored.size(); ++p) {
          const std::string_view page(
              file.data() + region + p * Arena::kPageSize, Arena::kPageSize);
          if (Crc32c(page) != im.stored[p].crc) {
            return BadSnapshotError("arena page checksum mismatch");
          }
        }
      }
      // Dirty pages land on the staged arena. For an adopted base mapping
      // the writes are copy-on-write — the snapshot file is never touched.
      arena.GrowForLoad(im.used_bytes);
      for (size_t p = 0; p < im.stored.size(); ++p) {
        std::memcpy(arena.base() + im.stored[p].index * Arena::kPageSize,
                    file.data() + region + p * Arena::kPageSize,
                    Arena::kPageSize);
      }
      (*loads)[i].roots.assign(im.roots);
      region += im.stored.size() * Arena::kPageSize;
    }
    applied = true;
  }
  if (!applied) return BadSnapshotError("container holds no data frame");
  *info = std::move(delta_info);
  return Status::Ok();
}

StatusOr<std::unique_ptr<Sampler>> RestoreArenaSampler(
    const SnapshotInfo& info, std::vector<ArenaLoad>&& loads) {
  StatusOr<std::unique_ptr<Sampler>> s =
      MakeSamplerChecked(info.backend, info.spec);
  if (!s.ok()) {
    return BadSnapshotError("header names a backend the registry rejects");
  }
  Status st = (*s)->RestoreFromArenas(std::move(loads));
  if (!st.ok()) return st;
  if ((*s)->size() != info.size ||
      !((*s)->TotalWeight() == info.total_weight)) {
    return BadSnapshotError(
        "restored state does not match the header's size/total-weight");
  }
  return std::move(*s);
}

namespace {

// Shared tail of the load paths: walk the data frames, apply them to `s`,
// and cross-check the restored state against the header.
Status LoadFramesInto(SnapshotReader& reader, const SnapshotInfo& info,
                      bool allow_native, Sampler* s) {
  bool applied = false;
  for (;;) {
    StatusOr<SnapshotReader::Frame> frame = reader.NextFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kEnd) break;
    if (applied) {
      return BadSnapshotError("container holds more than one data frame");
    }
    if (frame->type == FrameType::kPayload) {
      if (!allow_native) {
        return BadSnapshotError(
            "native snapshot payload is for a different backend");
      }
      Status st = s->Restore(std::string(frame->payload));
      if (!st.ok()) return st;
    } else if (frame->type == FrameType::kArenaImage) {
      // The byte-based load path for a v2 container: copy the raw pages
      // into owned heap arenas (per-page CRCs always verified here) and
      // hand them to the backend. Same restore entry point the mmap
      // recovery path uses, minus the zero-copy adoption.
      if (!allow_native) {
        return BadSnapshotError(
            "native snapshot payload is for a different backend");
      }
      std::vector<ArenaLoad> loads;
      Status st = StageArenaLoads(reader.bytes(), *frame, /*map=*/nullptr,
                                  /*verify_pages=*/true, &loads);
      if (!st.ok()) return st;
      st = s->RestoreFromArenas(std::move(loads));
      if (!st.ok()) return st;
    } else if (frame->type == FrameType::kArenaDelta) {
      return BadSnapshotError(
          "arena-delta container cannot be loaded standalone");
    } else {  // kGeneric
      if (!s->empty()) {
        return InvalidArgumentError(
            "generic snapshot import needs an empty sampler");
      }
      std::vector<ItemRecord> items;
      Status st = DecodeItemRecords(frame->payload, &items);
      if (!st.ok()) return st;
      for (const ItemRecord& rec : items) {
        StatusOr<ItemId> id = s->InsertWeight(rec.weight);
        if (!id.ok()) return id.status();
      }
    }
    applied = true;
  }
  if (!applied) return BadSnapshotError("container holds no data frame");
  if (s->size() != info.size || !(s->TotalWeight() == info.total_weight)) {
    return BadSnapshotError(
        "restored state does not match the header's size/total-weight");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<Sampler>> LoadSampler(const std::string& bytes) {
  SnapshotReader reader(bytes);
  SnapshotInfo info;
  Status st = reader.ReadHeader(&info);
  if (!st.ok()) return st;
  StatusOr<std::unique_ptr<Sampler>> s =
      MakeSamplerChecked(info.backend, info.spec);
  if (!s.ok()) {
    return BadSnapshotError("header names a backend the registry rejects");
  }
  st = LoadFramesInto(reader, info, /*allow_native=*/true, s->get());
  if (!st.ok()) return st;
  return std::move(*s);
}

StatusOr<std::unique_ptr<Sampler>> LoadSamplerAs(const std::string& name,
                                                 const SamplerSpec& spec,
                                                 const std::string& bytes) {
  SnapshotReader reader(bytes);
  SnapshotInfo info;
  Status st = reader.ReadHeader(&info);
  if (!st.ok()) return st;
  StatusOr<std::unique_ptr<Sampler>> s = MakeSamplerChecked(name, spec);
  if (!s.ok()) return s.status();
  st = LoadFramesInto(reader, info, /*allow_native=*/info.backend == name,
                      s->get());
  if (!st.ok()) return st;
  return std::move(*s);
}

Status LoadSamplerInto(const std::string& bytes, Sampler* s) {
  if (s == nullptr) return InvalidArgumentError("null sampler");
  SnapshotReader reader(bytes);
  SnapshotInfo info;
  Status st = reader.ReadHeader(&info);
  if (!st.ok()) return st;
  return LoadFramesInto(reader, info,
                        /*allow_native=*/info.backend == s->name(), s);
}

}  // namespace persist
}  // namespace dpss
