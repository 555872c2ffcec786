// The snapshot container (persist/snapshot.h) across every backend that
// persists: byte-exact round trips, the FuzzedSnapshotsNeverAbort
// generalization (every truncation point + 400 bit flips, per backend,
// through the container), golden files pinning the v1 bytes, and the
// generic-frame export path (cross-backend, and the only file form of the
// in-memory comparators).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.h"
#include "core/sampler.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "tests/test_util.h"
#include "util/little_endian.h"
#include "util/random.h"

#ifndef DPSS_TEST_DATA_DIR
#define DPSS_TEST_DATA_DIR "tests/golden"
#endif

namespace dpss {
namespace {

using persist::LoadSampler;
using persist::LoadSamplerAs;
using persist::ReadSnapshotInfo;
using persist::SaveSampler;

// Every backend that persists (`capabilities().snapshots`): halt, naive
// and the sharded wrapper over both a classic inner ("halt") and an
// arena-image inner ("naive"). The fixed-(α, β) comparators are in-memory
// only; PersistGenericTest covers their portable export.
std::vector<std::string> SnapshotBackends() {
  return {"halt", "naive", "sharded8:halt", "sharded4:naive"};
}

class PersistSnapshotTest : public ::testing::TestWithParam<std::string> {};

// Builds a state with every structurally interesting feature: a hole (and
// hence a bumped generation and non-trivial free-list order), a parked
// zero-weight item, an in-place update, and — where supported — a
// float-form weight.
std::unique_ptr<Sampler> BuildInterestingState(const std::string& backend,
                                               SamplerSpec* spec_out) {
  SamplerSpec spec;
  spec.seed = 1234;
  auto s = MakeSampler(backend, spec);
  EXPECT_NE(s, nullptr);
  std::vector<ItemId> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(*s->Insert(1 + 13 * i));
  ids.push_back(*s->Insert(0));  // parked
  if (s->capabilities().float_weights) {
    ids.push_back(*s->InsertWeight(Weight(3, 120)));
  }
  EXPECT_TRUE(s->Erase(ids[5]).ok());
  EXPECT_TRUE(s->Erase(ids[11]).ok());
  EXPECT_TRUE(s->SetWeight(ids[2], 999).ok());
  *spec_out = spec;
  return s;
}

TEST_P(PersistSnapshotTest, ContainerRoundTripIsByteExact) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  std::string bytes;
  ASSERT_TRUE(SaveSampler(*s, spec, &bytes).ok());

  // Header describes the state.
  auto info = ReadSnapshotInfo(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backend, GetParam());
  EXPECT_EQ(info->version, persist::kContainerVersion);
  EXPECT_EQ(info->size, s->size());
  EXPECT_TRUE(info->total_weight == s->TotalWeight());

  // The loaded sampler is the same backend in the same state: size, Σw,
  // and the (id, weight) set are all preserved.
  auto loaded = LoadSampler(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_STREQ((*loaded)->name(), GetParam().c_str());
  EXPECT_EQ((*loaded)->size(), s->size());
  EXPECT_TRUE((*loaded)->TotalWeight() == s->TotalWeight());
  std::vector<ItemRecord> before, after;
  ASSERT_TRUE(s->DumpItems(&before).ok());
  ASSERT_TRUE((*loaded)->DumpItems(&after).ok());
  ASSERT_EQ(before.size(), after.size());
  std::map<ItemId, Weight> expect;
  for (const ItemRecord& rec : before) expect[rec.id] = rec.weight;
  for (const ItemRecord& rec : after) {
    auto it = expect.find(rec.id);
    ASSERT_NE(it, expect.end()) << "id " << rec.id << " not in the source";
    EXPECT_TRUE(it->second == rec.weight) << "id " << rec.id;
  }
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());

  // Byte-exactness both ways: re-serializing the loaded state reproduces
  // the file bit for bit (free-list order and generations included).
  std::string again;
  ASSERT_TRUE(SaveSampler(**loaded, info->spec, &again).ok());
  EXPECT_EQ(again, bytes);

  // And the loaded sampler continues to *behave* identically: the next
  // insert lands in the same slot with the same generation.
  const auto a = s->Insert(77);
  const auto b = (*loaded)->Insert(77);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// FuzzedSnapshotsNeverAbort, generalized from halt-only to the full
// backend matrix via the container: every truncation point and 400
// random bit flips per backend must yield either a clean kBadSnapshot or
// a sampler that passes its own invariant audit — never an abort, never
// an out-of-bounds read (the CI sanitizers job runs this file under
// ASan+UBSan).
TEST_P(PersistSnapshotTest, FuzzedSnapshotsNeverAbort) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  std::string bytes;
  ASSERT_TRUE(SaveSampler(*s, spec, &bytes).ok());

  // Every truncation length (whole-word and ragged strides).
  for (size_t len = 0; len < bytes.size(); len += 1 + len % 7) {
    auto loaded = LoadSampler(bytes.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "len " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot)
        << "len " << len;
  }

  // Random single- and multi-bit flips. The frame CRCs catch essentially
  // everything; whatever slips through must still validate structurally.
  RandomEngine rng(22);
  int rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutant = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBelow(mutant.size());
      mutant[pos] = static_cast<char>(
          static_cast<unsigned char>(mutant[pos]) ^
          (1u << rng.NextBelow(8)));
    }
    auto loaded = LoadSampler(mutant);
    if (loaded.ok()) {
      (*loaded)->CheckInvariants();
    } else {
      ++rejected;
      EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot);
    }
  }
  EXPECT_GT(rejected, 0);
}

// The arena-image (v2) container: a raw page dump of the relocatable
// arena. Round trips must preserve ids and behaviour exactly like v1, and
// re-collecting the loaded arena must reproduce the file bit for bit —
// the relocatability property the format is built on.
TEST_P(PersistSnapshotTest, ArenaContainerRoundTripIsByteExact) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  if (!s->capabilities().arena_image) {
    GTEST_SKIP() << GetParam() << " has no arena images";
  }
  std::string bytes;
  ASSERT_TRUE(persist::SaveSamplerArena(s.get(), spec, &bytes).ok());
  auto info = ReadSnapshotInfo(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backend, GetParam());
  EXPECT_EQ(info->version, persist::kContainerVersionArena);
  EXPECT_EQ(info->size, s->size());
  EXPECT_TRUE(info->total_weight == s->TotalWeight());
  // The page payload region starts at a 4-KiB file offset, so any state
  // at all makes the container bigger than one alignment block.
  EXPECT_GT(bytes.size(), persist::kArenaFileAlign);

  auto loaded = LoadSampler(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_STREQ((*loaded)->name(), GetParam().c_str());
  EXPECT_EQ((*loaded)->size(), s->size());
  EXPECT_TRUE((*loaded)->TotalWeight() == s->TotalWeight());
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());
  std::vector<ItemRecord> before, after;
  ASSERT_TRUE(s->DumpItems(&before).ok());
  ASSERT_TRUE((*loaded)->DumpItems(&after).ok());
  ASSERT_EQ(before.size(), after.size());
  std::map<ItemId, Weight> expect;
  for (const ItemRecord& rec : before) expect[rec.id] = rec.weight;
  for (const ItemRecord& rec : after) {
    auto it = expect.find(rec.id);
    ASSERT_NE(it, expect.end()) << "id " << rec.id << " not in the source";
    EXPECT_TRUE(it->second == rec.weight) << "id " << rec.id;
  }

  // Relocation pin: the loaded arena lives at a different address, yet
  // collecting it again reproduces the identical container bytes.
  std::string again;
  ASSERT_TRUE(persist::SaveSamplerArena(loaded->get(), spec, &again).ok());
  EXPECT_EQ(again, bytes);

  // Behavioural identity survives the trip.
  const auto a = s->Insert(77);
  const auto b = (*loaded)->Insert(77);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// The v2 fuzz gate: every truncation point and 400 random bit flips of an
// arena container must yield a clean kBadSnapshot or an invariant-passing
// sampler — the per-page CRCs make "accepted" essentially impossible, but
// the requirement is the absence of aborts and OOB reads under ASan/UBSan.
TEST_P(PersistSnapshotTest, FuzzedArenaSnapshotsNeverAbort) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  if (!s->capabilities().arena_image) {
    GTEST_SKIP() << GetParam() << " has no arena images";
  }
  std::string bytes;
  ASSERT_TRUE(persist::SaveSamplerArena(s.get(), spec, &bytes).ok());

  // Truncations, with a stride that still hits every page boundary region.
  for (size_t len = 0; len < bytes.size(); len += 1 + len % 409) {
    auto loaded = LoadSampler(bytes.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "len " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot)
        << "len " << len;
  }

  RandomEngine rng(29);
  int rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutant = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBelow(mutant.size());
      mutant[pos] = static_cast<char>(
          static_cast<unsigned char>(mutant[pos]) ^
          (1u << rng.NextBelow(8)));
    }
    auto loaded = LoadSampler(mutant);
    if (loaded.ok()) {
      (*loaded)->CheckInvariants();
    } else {
      ++rejected;
      EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot);
    }
  }
  EXPECT_GT(rejected, 0);
}

// A delta container only makes sense relative to its chain: feeding one
// to the standalone loader must be a clean, loud rejection.
TEST_P(PersistSnapshotTest, StandaloneDeltaIsRejected) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  if (!s->capabilities().arena_image) {
    GTEST_SKIP() << GetParam() << " has no arena images";
  }
  std::string base;
  ASSERT_TRUE(persist::SaveSamplerArena(s.get(), spec, &base).ok());
  ASSERT_TRUE(s->SetWeight(*s->Insert(123), 321).ok());
  std::string delta;
  ASSERT_TRUE(
      persist::SaveSamplerArenaDelta(s.get(), spec, /*base_epoch=*/1, &delta)
          .ok());
  auto loaded = LoadSampler(delta);
  EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot);
}

// The raw backend Restore surface gets the same fuzz treatment without
// the container's CRC armour, so the per-backend parsers themselves must
// reject or structurally survive every mutation. Here bit flips do get
// accepted sometimes (e.g. generation flips of dead slots), which is the
// point: accepted mutants must still be internally consistent.
TEST_P(PersistSnapshotTest, FuzzedRawRestoresNeverAbort) {
  SamplerSpec spec;
  auto s = BuildInterestingState(GetParam(), &spec);
  std::string bytes;
  ASSERT_TRUE(s->Serialize(&bytes).ok());

  for (size_t len = 0; len < bytes.size(); len += 1 + len % 7) {
    auto sink = MakeSampler(GetParam(), spec);
    EXPECT_EQ(sink->Restore(bytes.substr(0, len)).code(),
              StatusCode::kBadSnapshot)
        << "len " << len;
    // A failed restore leaves the sampler untouched and usable.
    EXPECT_TRUE(sink->Insert(1).ok());
  }

  RandomEngine rng(23);
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutant = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBelow(mutant.size());
      mutant[pos] = static_cast<char>(
          static_cast<unsigned char>(mutant[pos]) ^
          (1u << rng.NextBelow(8)));
    }
    auto sink = MakeSampler(GetParam(), spec);
    const Status st = sink->Restore(mutant);
    if (st.ok()) {
      ++accepted;
      sink->CheckInvariants();
    } else {
      ++rejected;
      EXPECT_EQ(st.code(), StatusCode::kBadSnapshot);
    }
  }
  // The corpus must exercise both outcomes (header flips reject; dead-slot
  // generation flips accept).
  EXPECT_GT(accepted, 0) << GetParam();
  EXPECT_GT(rejected, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PersistSnapshotTest,
    ::testing::ValuesIn(SnapshotBackends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return testing_util::GTestNameFromBackend(info.param);
    });

// --- Crafted (CRC-valid) v2 containers ------------------------------------
//
// Random bit flips die on the frame CRCs, so the adversarial cases below
// are built through SnapshotWriter — every frame and page checksum is
// valid and only the *semantic* validation stands between the crafted
// metadata and the loader.

// used_bytes in the top partial page of the u64 range makes PageRoundUp
// wrap to 0, so page_count == 0 cross-checks "consistently" while
// used_bytes claims a multi-exabyte arena; the loader must reject it, not
// size dirty bitmaps or validate extents against the fiction.
TEST(PersistArenaCraftedTest, WrappingUsedBytesIsRejected) {
  SamplerSpec spec;
  spec.seed = 7;
  auto s = MakeSampler("naive", spec);
  ASSERT_TRUE(s->Insert(5).ok());
  std::string meta;
  AppendU32(&meta, 1);           // image_count
  AppendU32(&meta, 0);           // roots_len
  AppendU64(&meta, UINT64_MAX);  // used_bytes: PageRoundUp wraps to 0
  AppendU64(&meta, 0);           // page_count matching the wrapped value
  std::string bytes;
  persist::SnapshotWriter writer(&bytes, persist::kContainerVersionArena);
  ASSERT_TRUE(writer.BeginSnapshot(*s, spec).ok());
  ASSERT_TRUE(
      writer.AddArenaFrame(persist::FrameType::kArenaImage, meta, {}).ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto loaded = persist::LoadSampler(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot);
}

// A roots block that aliases the generation array onto the weight bytes:
// every per-array check still passes (the u32 views of small weights are
// in generation range, count/Σw are computed from the untouched weights),
// so only the extent-disjointness validation can refuse it. Accepting it
// would let later writes through one array silently corrupt the other.
TEST(PersistArenaCraftedTest, AliasedSlotExtentsAreRejected) {
  SamplerSpec spec;
  spec.seed = 11;
  auto s = MakeSampler("naive", spec);
  for (int i = 0; i < 24; ++i) ASSERT_TRUE(s->Insert(1 + i).ok());
  std::vector<ArenaImage> images;
  ASSERT_TRUE(s->CollectArenaImages(ArenaImageMode::kFull, &images).ok());
  ASSERT_EQ(images.size(), 1u);
  ArenaImage& img = images[0];

  // Decode the 14-word roots block and point gens at the weights extent.
  std::vector<uint64_t> roots;
  size_t pos = 0;
  for (uint64_t v = 0; ReadU64(img.roots, &pos, &v);) roots.push_back(v);
  ASSERT_EQ(roots.size(), 14u);
  roots[6] = roots[2];  // gens_off = weights_off
  roots[7] = roots[3];  // gens_cap = weights_cap
  img.roots.clear();
  for (uint64_t v : roots) AppendU64(&img.roots, v);

  // Reframe the tampered image with correct frame and page CRCs.
  std::string meta;
  AppendU32(&meta, 1);
  AppendU32(&meta, static_cast<uint32_t>(img.roots.size()));
  meta.append(img.roots);
  AppendU64(&meta, img.used_bytes);
  AppendU64(&meta, img.page_count);
  std::vector<const std::string*> pages;
  for (const auto& [index, page] : img.pages) {
    (void)index;
    AppendU32(&meta, persist::MaskCrc(persist::Crc32c(page)));
    pages.push_back(&page);
  }
  std::string bytes;
  persist::SnapshotWriter writer(&bytes, persist::kContainerVersionArena);
  ASSERT_TRUE(writer.BeginSnapshot(*s, spec).ok());
  ASSERT_TRUE(
      writer.AddArenaFrame(persist::FrameType::kArenaImage, meta, pages)
          .ok());
  ASSERT_TRUE(writer.Finish().ok());

  auto loaded = persist::LoadSampler(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kBadSnapshot);
}

// --- Generic frames: cross-backend export ---------------------------------

TEST(PersistGenericTest, PortableExportCrossesBackends) {
  SamplerSpec spec;
  spec.seed = 9;
  auto halt = MakeSampler("halt", spec);
  std::vector<ItemId> ids;
  const std::vector<uint64_t> weights = {5, 10, 0, 85};
  ASSERT_TRUE(halt->InsertBatch(weights, &ids).ok());
  ASSERT_TRUE(halt->Erase(ids[1]).ok());

  std::string bytes;
  ASSERT_TRUE(persist::ExportPortable(*halt, spec, &bytes).ok());
  auto info = ReadSnapshotInfo(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backend, "halt");

  // Import the item set into a different backend: weights and Σw carry
  // over; ids are freshly assigned (the documented generic-frame trade).
  auto odss = LoadSamplerAs("odss", spec, bytes);
  ASSERT_TRUE(odss.ok());
  EXPECT_STREQ((*odss)->name(), "odss");
  EXPECT_EQ((*odss)->size(), halt->size());
  EXPECT_TRUE((*odss)->TotalWeight() == halt->TotalWeight());
  std::vector<ItemId> out;
  ASSERT_TRUE(
      (*odss)->SampleInto({1, 1}, {0, 1}, &out).ok());

  // A native payload, by contrast, must not cross backends.
  std::string native;
  ASSERT_TRUE(SaveSampler(*halt, spec, &native).ok());
  auto wrong = LoadSamplerAs("naive", spec, native);
  EXPECT_EQ(wrong.status().code(), StatusCode::kBadSnapshot);
}

// The in-memory comparators have no native format, so SaveSampler refuses
// them instead of quietly writing the id-losing generic frame; the
// explicit portable export still round-trips their size, Σw and the
// spec's fixed (α, β).
TEST(PersistGenericTest, InMemoryComparatorsExportButDoNotSave) {
  for (const char* backend : {"rebuild", "bucket_jump", "odss"}) {
    SCOPED_TRACE(backend);
    SamplerSpec spec;
    spec.seed = 5;
    spec.fixed_alpha = {1, 2};
    spec.fixed_beta = {3, 1};
    auto s = MakeSampler(backend, spec);
    ASSERT_NE(s, nullptr);
    std::vector<ItemId> ids;
    const std::vector<uint64_t> weights = {4, 0, 9, 30};
    ASSERT_TRUE(s->InsertBatch(weights, &ids).ok());
    ASSERT_TRUE(s->Erase(ids[2]).ok());

    std::string bytes;
    EXPECT_EQ(SaveSampler(*s, spec, &bytes).code(), StatusCode::kUnsupported);

    bytes.clear();
    ASSERT_TRUE(persist::ExportPortable(*s, spec, &bytes).ok());
    auto loaded = LoadSampler(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_STREQ((*loaded)->name(), backend);
    EXPECT_EQ((*loaded)->size(), s->size());
    EXPECT_TRUE((*loaded)->TotalWeight() == s->TotalWeight());
    auto info = ReadSnapshotInfo(bytes);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->spec.fixed_alpha.num, 1u);
    EXPECT_EQ(info->spec.fixed_alpha.den, 2u);
    EXPECT_EQ(info->spec.fixed_beta.num, 3u);
    EXPECT_EQ(info->spec.fixed_beta.den, 1u);
    // The reloaded comparator answers the exported pair, and only it.
    std::vector<ItemId> out;
    EXPECT_TRUE((*loaded)->SampleInto({1, 2}, {3, 1}, &out).ok());
    EXPECT_EQ((*loaded)->SampleInto({1, 1}, {0, 1}, &out).code(),
              StatusCode::kUnsupported);
  }
}

// --- Golden files: the v1 bytes are pinned --------------------------------
//
// The files under tests/golden/ were written by this PR's
// SnapshotWriter (see tests/golden/README.md for the generation script).
// If this test starts failing, the on-disk format changed: bump
// kContainerVersion and add an explicit reader for the old version —
// never silently re-pin the bytes.

std::string ReadGoldenFile(const std::string& name) {
  const std::string path = std::string(DPSS_TEST_DATA_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

struct GoldenCase {
  const char* file;
  const char* backend;
  uint32_t version;
  uint64_t size;
  const char* total_weight_decimal;
};

class GoldenSnapshotTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSnapshotTest, PinnedBytesStayLoadable) {
  const GoldenCase& c = GetParam();
  const std::string bytes = ReadGoldenFile(c.file);
  ASSERT_FALSE(bytes.empty()) << "missing golden file " << c.file;

  auto info = ReadSnapshotInfo(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backend, c.backend);
  EXPECT_EQ(info->version, c.version);

  auto loaded = LoadSampler(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->size(), c.size);
  EXPECT_EQ((*loaded)->TotalWeight().ToDecimalString(),
            c.total_weight_decimal);
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());

  // Writer pin: re-serializing the loaded state must reproduce the golden
  // bytes exactly. A diff here means the *writer* for that version changed
  // — which is a format bump, not a refactor.
  std::string again;
  if (c.version == persist::kContainerVersionArena) {
    ASSERT_TRUE(
        persist::SaveSamplerArena(loaded->get(), info->spec, &again).ok());
  } else {
    ASSERT_TRUE(SaveSampler(**loaded, info->spec, &again).ok());
  }
  EXPECT_EQ(again, bytes) << "container bytes changed for " << c.file;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenSnapshotTest,
    ::testing::Values(
        // 4 items inserted (10, 0, 3*2^40, 999), the zero-weight one
        // erased: 3 live, Σw = 10 + 999 + 3·2^40 = 3298534884337.
        GoldenCase{"halt_v1.snapshot", "halt", 1, 3, "3298534884337"},
        // naive holds u64 weights only: (10, 7, 999), second erased.
        GoldenCase{"naive_v1.snapshot", "naive", 1, 2, "1009"},
        // Two shards over halt, same ops as the halt case.
        GoldenCase{"sharded2_halt_v1.snapshot", "sharded2:halt", 1, 3,
                   "3298534884337"},
        // The same naive state as a v2 arena image, alone and sharded:
        // pins the arena byte layout itself.
        GoldenCase{"naive_v2.snapshot", "naive", 2, 2, "1009"},
        GoldenCase{"sharded2_naive_v2.snapshot", "sharded2:naive", 2, 2,
                   "1009"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return testing_util::GTestNameFromBackend(info.param.backend) + "_v" +
             std::to_string(info.param.version);
    });

}  // namespace
}  // namespace dpss
