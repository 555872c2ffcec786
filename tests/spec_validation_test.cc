// Construction-time SamplerSpec diagnostics: MakeSamplerChecked must
// reject malformed and contradictory specs with kInvalidArgument naming
// the offending field, instead of the old behaviour of silently ignoring
// them (and, for a zero-denominator fixed parameter, blowing up deep
// inside the first probability refresh).

#include <string>

#include <gtest/gtest.h>

#include "core/sampler.h"

namespace dpss {
namespace {

bool MessageMentions(const Status& st, const char* field) {
  return std::string(st.message()).find(field) != std::string::npos;
}

TEST(SpecValidationTest, UnknownBackendName) {
  const auto s = MakeSamplerChecked("definitely-not-registered");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeSampler("definitely-not-registered"), nullptr);
}

TEST(SpecValidationTest, HaltRejectsNonPositiveMigratePerUpdate) {
  SamplerSpec spec;
  spec.migrate_per_update = 0;
  const auto s = MakeSamplerChecked("halt", spec);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageMentions(s.status(), "migrate_per_update"));
  EXPECT_EQ(MakeSampler("halt", spec), nullptr);
}

TEST(SpecValidationTest, HaltRejectsContradictoryDeamortizedMigration) {
  SamplerSpec spec;
  spec.deamortized_rebuild = true;
  // Below 5 items per update the migration cannot be guaranteed to finish
  // before the next size-doubling threshold: contradictory, not merely
  // slow.
  spec.migrate_per_update = 3;
  const auto bad = MakeSamplerChecked("halt", spec);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageMentions(bad.status(), "migrate_per_update"));

  spec.migrate_per_update = 5;
  EXPECT_TRUE(MakeSamplerChecked("halt", spec).ok());
}

TEST(SpecValidationTest, FixedBackendsRejectZeroDenominators) {
  for (const char* backend : {"rebuild", "odss", "bucket_jump"}) {
    SamplerSpec spec;
    spec.fixed_alpha = {1, 0};
    auto s = MakeSamplerChecked(backend, spec);
    ASSERT_FALSE(s.ok()) << backend;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << backend;
    EXPECT_TRUE(MessageMentions(s.status(), "fixed_alpha")) << backend;

    spec.fixed_alpha = {1, 1};
    spec.fixed_beta = {7, 0};
    s = MakeSamplerChecked(backend, spec);
    ASSERT_FALSE(s.ok()) << backend;
    EXPECT_TRUE(MessageMentions(s.status(), "fixed_beta")) << backend;
    EXPECT_EQ(MakeSampler(backend, spec), nullptr) << backend;
  }
  // The parameterized backends ignore the fixed parameters entirely, so a
  // shared spec with defaults elsewhere keeps working.
  SamplerSpec spec;
  spec.fixed_alpha = {1, 0};
  EXPECT_TRUE(MakeSamplerChecked("halt", spec).ok());
  EXPECT_TRUE(MakeSamplerChecked("naive", spec).ok());
}

TEST(SpecValidationTest, ShardedRejectsBadShardCounts) {
  SamplerSpec spec;
  spec.num_shards = 0;
  auto s = MakeSamplerChecked("sharded:halt", spec);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageMentions(s.status(), "num_shards"));

  spec.num_shards = 4097;
  EXPECT_FALSE(MakeSamplerChecked("sharded:halt", spec).ok());

  spec = SamplerSpec{};
  EXPECT_FALSE(MakeSamplerChecked("sharded0:halt", spec).ok());
  EXPECT_FALSE(MakeSamplerChecked("sharded99999:halt", spec).ok());
}

TEST(SpecValidationTest, ShardedPropagatesInnerDiagnostics) {
  SamplerSpec spec;
  spec.migrate_per_update = 0;
  auto s = MakeSamplerChecked("sharded4:halt", spec);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(MessageMentions(s.status(), "migrate_per_update"));

  EXPECT_FALSE(MakeSamplerChecked("sharded4:nope").ok());
  EXPECT_EQ(MakeSampler("sharded4:nope"), nullptr);
}

// The wrapper samples every shard at the global denominator, so an inner
// backend that answers only its fixed (α, β) cannot be sharded: rejected
// at construction, naming the wrapper and the inner.
TEST(SpecValidationTest, ShardedRejectsFixedParameterInners) {
  for (const char* inner : {"rebuild", "odss", "bucket_jump"}) {
    const auto s = MakeSamplerChecked(std::string("sharded4:") + inner);
    ASSERT_FALSE(s.ok()) << inner;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << inner;
    EXPECT_TRUE(MessageMentions(s.status(), "sharded")) << inner;
    EXPECT_TRUE(MessageMentions(s.status(), inner)) << s.status().message();
  }
}

TEST(SpecValidationTest, ShardedNameGrammar) {
  // Count embedded in the name.
  auto s = MakeSamplerChecked("sharded16:naive");
  ASSERT_TRUE(s.ok());
  EXPECT_STREQ((*s)->name(), "sharded16:naive");
  EXPECT_NE((*s)->DebugString().find("shards=16"), std::string::npos);

  // Count from the spec.
  SamplerSpec spec;
  spec.num_shards = 2;
  s = MakeSamplerChecked("sharded:naive", spec);
  ASSERT_TRUE(s.ok());
  EXPECT_STREQ((*s)->name(), "sharded:naive");
  EXPECT_NE((*s)->DebugString().find("shards=2"), std::string::npos);

  // Nested composition is rejected: the inner wrapper has no
  // explicit-denominator query to sample at.
  s = MakeSamplerChecked("sharded2:sharded2:naive");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageMentions(s.status(), "sharded[K]:sharded"));

  // Not the grammar: no colon, or junk between the prefix and the colon.
  EXPECT_FALSE(MakeSamplerChecked("sharded").ok());
  EXPECT_FALSE(MakeSamplerChecked("sharded8").ok());
  EXPECT_FALSE(MakeSamplerChecked("shardedx:halt").ok());
}

}  // namespace
}  // namespace dpss
