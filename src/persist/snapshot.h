/// \file
/// \brief The versioned, checksummed snapshot container: one file format
/// that serializes **any** registered `dpss::Sampler` backend.
///
/// Layout (all integers little-endian):
///
/// \code
///   file   := magic(8) frame*                      magic = "DPSSNP01"
///   frame  := type(1) len(4) payload[len] crc(4)   crc = masked CRC32C
///                                                        over type+payload
///   frames := header (payload | generic) end
/// \endcode
///
/// The **header** frame records the container version, the backend registry
/// name, the `SamplerSpec` to rebuild it with, and the item count and exact
/// Σw of the saved state (cross-checked after restore). The **payload**
/// frame carries the backend's native `Serialize` bytes — every built-in
/// backend has a native format that round-trips ids, generations and
/// free-slot order exactly. Backends registered without
/// `capabilities().snapshots` fall back to a **generic** frame of
/// (id, weight) records dumped via `Sampler::DumpItems` and replayed
/// through `InsertWeight` (state-equivalent weights; fresh ids) — the same
/// frame doubles as the cross-backend export format. The **end** frame
/// seals the container (frame count + payload byte count), so a truncated
/// file is always detected even when the cut lands between frames.
///
/// **Version 2 (arena images).** Backends with
/// `capabilities().arena_image` can snapshot as a *raw arena image*
/// instead of a parsed payload: an **arena-image** frame carries only
/// metadata (per-image root block, sizes, and a CRC32C per 4-KiB page);
/// the raw pages follow the frame, zero-padded so they start on a 4-KiB
/// *file* offset. Because the arena layout is position-independent,
/// recovery can `Env::MapFile` the snapshot copy-on-write and hand the
/// mapped slices straight to `Sampler::RestoreFromArenas` — load cost is
/// page-fault-on-demand instead of a full parse. An **arena-delta** frame
/// is the same shape restricted to the pages dirtied since a base epoch
/// (`persist/recovery.cc` chains deltas onto the last full image). v2
/// files still parse through the ordinary byte-based `LoadSampler` (pages
/// are then copied to heap arenas), so golden files and fuzzing cover
/// both formats with one driver.
///
/// Corruption policy: `LoadSampler`/`LoadSamplerInto` return `kBadSnapshot`
/// for *any* malformed input — truncations, bit flips, version bumps, a
/// backend name the registry does not know — and never abort or read out
/// of bounds (fuzzed in tests/persist_snapshot_test.cc). A future format
/// change must bump `kContainerVersion` and add an explicit reader; the
/// golden-file tests pin today's bytes so a silent change breaks loudly.

#ifndef DPSS_PERSIST_SNAPSHOT_H_
#define DPSS_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/big_uint.h"
#include "core/sampler.h"
#include "persist/env.h"

namespace dpss {
namespace persist {

/// Container magic: the ASCII bytes "DPSSNP01".
inline constexpr uint64_t kContainerMagic = 0x3130504E53535044ULL;
/// The classic (parsed-payload) container format version.
inline constexpr uint32_t kContainerVersion = 1;
/// The arena-image container format version (see the file comment).
inline constexpr uint32_t kContainerVersionArena = 2;
/// Raw arena pages inside a v2 file start at a multiple of this file
/// offset and are written in whole 4-KiB units (== Arena::kPageSize).
inline constexpr uint64_t kArenaFileAlign = 4096;

/// Frame tags of the container format.
enum class FrameType : uint8_t {
  kHeader = 1,      ///< Backend name, spec, size, Σw.
  kPayload = 2,     ///< Native backend Serialize bytes.
  kGeneric = 3,     ///< Portable (id, weight) item records.
  kEnd = 4,         ///< Seal: frame count + payload byte count.
  kArenaImage = 5,  ///< v2: arena metadata; full raw pages follow the frame.
  kArenaDelta = 6,  ///< v2: arena metadata; only dirty pages follow.
};

/// Everything the header frame records about a snapshot.
struct SnapshotInfo {
  uint32_t version = 0;     ///< Container version the file was written at.
  std::string backend;      ///< Registry name ("halt", "sharded8:halt", ...).
  SamplerSpec spec;         ///< Spec to rebuild the backend with.
  uint64_t size = 0;        ///< Live items at save time.
  BigUInt total_weight;     ///< Exact Σw at save time.
};

/// Streams a container snapshot into a caller-owned string. Call order:
/// BeginSnapshot, then exactly one of AddPayloadFrame/AddGenericFrame
/// (normally via Sampler::SaveTo), then Finish. Not thread-safe.
class SnapshotWriter {
 public:
  /// Frames will be appended to `*out` (not cleared first). `version` is
  /// recorded in the header frame; arena frames require
  /// `kContainerVersionArena` *and* an `*out` that starts empty (raw-page
  /// alignment is computed from the start of the string).
  explicit SnapshotWriter(std::string* out,
                          uint32_t version = kContainerVersion)
      : out_(out), version_(version) {}

  /// Writes the magic and the header frame describing `s` (name, size, Σw)
  /// and the spec it should be rebuilt with.
  Status BeginSnapshot(const Sampler& s, const SamplerSpec& spec);

  /// Adds the native-payload frame. \pre BeginSnapshot succeeded; no data
  /// frame written yet.
  Status AddPayloadFrame(std::string_view bytes);

  /// Adds the portable item-record frame. Same preconditions.
  Status AddGenericFrame(const std::vector<ItemRecord>& items);

  /// Adds an arena frame (`kArenaImage` or `kArenaDelta`): the metadata
  /// payload is CRC-framed like any other frame, then the file is
  /// zero-padded to the next 4-KiB boundary and every page in `pages`
  /// (each exactly Arena::kPageSize bytes, covered by the per-page CRCs
  /// inside `meta`) is appended raw. Same preconditions as
  /// AddPayloadFrame, plus the writer must have been constructed with
  /// `kContainerVersionArena`.
  Status AddArenaFrame(FrameType type, std::string_view meta,
                       const std::vector<const std::string*>& pages);

  /// Seals the container with the end frame.
  Status Finish();

 private:
  void AppendFrame(FrameType type, std::string_view payload);

  std::string* out_;
  uint32_t version_ = kContainerVersion;
  uint64_t payload_bytes_ = 0;
  uint32_t data_frames_ = 0;
  bool begun_ = false;
  bool finished_ = false;
};

/// Walks the frames of a container snapshot, validating the magic and
/// every frame CRC as it goes. Never reads out of bounds; any malformation
/// surfaces as `kBadSnapshot`.
class SnapshotReader {
 public:
  /// One validated frame; `payload` points into the reader's input.
  struct Frame {
    FrameType type = FrameType::kEnd;  ///< Frame tag.
    std::string_view payload;          ///< CRC-verified frame contents.
    /// Arena frames only: byte offset (from the start of the container)
    /// where the frame's raw pages begin, and how many pages follow. The
    /// reader bounds-checks the region but leaves per-page CRC validation
    /// to the loader.
    uint64_t pages_offset = 0;
    uint64_t pages_stored = 0;
  };

  /// The reader borrows `bytes`; it must outlive the reader and any Frame.
  explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}

  /// Validates the magic and reads the header frame into `*info`.
  Status ReadHeader(SnapshotInfo* info);

  /// The next frame after the header. A `kEnd` frame is validated against
  /// the frames actually seen and ends iteration.
  StatusOr<Frame> NextFrame();

  /// The container bytes the reader was constructed over (arena loaders
  /// slice raw-page regions out of it via Frame::pages_offset).
  std::string_view bytes() const { return bytes_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  uint32_t version_ = kContainerVersion;
  uint64_t payload_bytes_ = 0;
  uint32_t data_frames_ = 0;
  bool header_done_ = false;
  bool end_seen_ = false;
};

// --- One-call drivers -----------------------------------------------------

/// Serializes `s` into a container snapshot appended to `*out` (native
/// payload when the backend has one, generic records otherwise).
Status SaveSampler(const Sampler& s, const SamplerSpec& spec,
                   std::string* out);

/// Like SaveSampler but forces the portable generic frame — the
/// cross-backend export path (restore via LoadSampler into any backend
/// name recorded... the header keeps `s`'s own name; use LoadSamplerAs to
/// import into a different backend).
Status ExportPortable(const Sampler& s, const SamplerSpec& spec,
                      std::string* out);

/// Writes SaveSampler's bytes to `path` through `env` and syncs them. Not
/// atomic on its own — callers needing atomic replacement write a temp
/// name and rename (see persist/recovery.cc).
Status SaveSamplerToFile(const Sampler& s, const SamplerSpec& spec, Env* env,
                         const std::string& path);

// --- v2 arena-image drivers -----------------------------------------------

/// Serializes `s` as a v2 arena-image snapshot (requires
/// `capabilities().arena_image`). Collects **full** images — which resets
/// the backend's dirty-page baseline, making this snapshot the base the
/// next incremental delta is relative to. Non-const for exactly that
/// reason; the item state is untouched.
Status SaveSamplerArena(Sampler* s, const SamplerSpec& spec,
                        std::string* out);

/// Serializes only the pages dirtied since the last collection as a v2
/// arena-delta container. `base_epoch` records which epoch the delta
/// extends; the header frame carries the *post-delta* size/Σw. Also
/// resets the dirty baseline (the delta is now the baseline).
Status SaveSamplerArenaDelta(Sampler* s, const SamplerSpec& spec,
                             uint64_t base_epoch, std::string* out);

/// Writes `bytes` to `path` through a `MapMode::kShared` mapping —
/// truncate to size, memcpy, one Msync, then an fsync of the mapped file
/// (Msync covers the pages; the fsync covers the size and block
/// allocations) — falling back to buffered Append+Sync when the env has
/// no write-through mappings. The file is durable (data and metadata,
/// not the directory entry) after Ok.
Status WriteFileViaMap(Env* env, const std::string& path,
                       std::string_view bytes);

/// Parses a mapped v2 container and stages its images as ArenaLoads whose
/// arenas adopt copy-on-write slices of `map` (no page copies; the
/// mapping is kept alive by the loads). `verify_pages` re-checksums every
/// stored page against the frame metadata up front; without it only the
/// metadata frame CRCs are checked and page integrity rests on the
/// write-path ordering (sync before rename). Appends to `*loads`.
Status ParseArenaContainer(std::shared_ptr<MappedFile> map,
                           bool verify_pages, SnapshotInfo* info,
                           std::vector<ArenaLoad>* loads);

/// Parses a mapped v2 arena-delta container and applies its dirty pages
/// onto `*loads` (staged by ParseArenaContainer / earlier deltas). The
/// delta must extend `expected_base_epoch` and carry the same image
/// count; `*info` is replaced with the delta's header (the post-delta
/// state). Copy-on-write: the base mapping is never written through.
Status ApplyArenaDeltaFile(std::shared_ptr<MappedFile> map,
                           bool verify_pages,
                           uint64_t expected_base_epoch, SnapshotInfo* info,
                           std::vector<ArenaLoad>* loads);

/// Finishes an arena restore: constructs the backend named in `info`,
/// hands it the staged loads, and cross-checks size and Σw against the
/// header.
StatusOr<std::unique_ptr<Sampler>> RestoreArenaSampler(
    const SnapshotInfo& info, std::vector<ArenaLoad>&& loads);

/// Parses just the header: which backend, which spec, how much state.
StatusOr<SnapshotInfo> ReadSnapshotInfo(std::string_view bytes);

/// Rebuilds a sampler from a container snapshot: constructs the backend
/// named in the header with the recorded spec, restores the payload (ids
/// preserved for native payloads), and cross-checks size and Σw.
StatusOr<std::unique_ptr<Sampler>> LoadSampler(const std::string& bytes);

/// Like LoadSampler but constructs backend `name` instead of the header's.
/// Only generic-frame snapshots can cross backends (native payloads return
/// `kBadSnapshot` on a name mismatch); ids are freshly assigned.
StatusOr<std::unique_ptr<Sampler>> LoadSamplerAs(const std::string& name,
                                                 const SamplerSpec& spec,
                                                 const std::string& bytes);

/// Restores a container snapshot into an existing sampler. Native payloads
/// require `s->name()` to equal the header backend; generic frames require
/// `s` to be empty (they insert, not replace).
Status LoadSamplerInto(const std::string& bytes, Sampler* s);

// --- Generic record codec (exposed for tests) -----------------------------

/// Encodes item records as the generic-frame payload.
void EncodeItemRecords(const std::vector<ItemRecord>& items,
                       std::string* out);
/// Decodes a generic-frame payload; `kBadSnapshot` on malformed input.
Status DecodeItemRecords(std::string_view payload,
                         std::vector<ItemRecord>* out);

}  // namespace persist
}  // namespace dpss

#endif  // DPSS_PERSIST_SNAPSHOT_H_
