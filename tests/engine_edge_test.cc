// Edge-case tests for the tiering engine: error paths, capacity limits during
// migration and faulting, migration-cost accounting, and resource lifetime.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/medium.h"
#include "src/tiering/address_space.h"
#include "src/tiering/engine.h"
#include "src/tiering/tier_table.h"
#include "src/zswap/zswap.h"

namespace tierscape {
namespace {

TEST(EngineEdgeTest, BadMigrationArgumentsRejected) {
  Medium dram(DramSpec(32 * kMiB));
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  AddressSpace space;
  space.Allocate("a", 2 * kMiB, CorpusProfile::kBinary);
  TieringEngine engine(space, tiers);
  ASSERT_TRUE(engine.PlaceInitial().ok());
  EXPECT_FALSE(engine.MigrateRegion(0, 7).ok());   // no such tier
  EXPECT_FALSE(engine.MigrateRegion(0, -1).ok());  // negative tier
  EXPECT_FALSE(engine.MigrateRegion(99, 0).ok());  // no such region
}

TEST(EngineEdgeTest, MigrationToFullByteTierStopsEarly) {
  Medium dram(DramSpec(32 * kMiB));
  Medium nvmm(NvmmSpec(kRegionSize / 2));  // room for only 256 pages
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  ASSERT_TRUE(tiers.AddByteTier(nvmm).ok());
  AddressSpace space;
  space.Allocate("a", 2 * kMiB, CorpusProfile::kBinary);
  TieringEngine engine(space, tiers);
  ASSERT_TRUE(engine.PlaceInitial().ok());

  auto moved = engine.MigrateRegion(0, 1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->moved, kRegionSize / 2 / kPageSize);  // exactly the NVMM capacity
  // The pages that did not fit are reported as shortfall, not dropped.
  EXPECT_EQ(moved->shortfall, kPagesPerRegion - moved->moved);
  const auto counts = engine.PagesPerTier();
  EXPECT_EQ(counts[0] + counts[1], space.total_pages());  // nothing lost
}

TEST(EngineEdgeTest, FaultSpillsToNvmmWhenDramFull) {
  // DRAM sized exactly one region; all pages compressed; on fault with no
  // DRAM headroom, promotion must land in NVMM (§6.5 "when DRAM is full").
  Medium dram(DramSpec(kRegionSize));
  Medium nvmm(NvmmSpec(64 * kMiB));
  ZswapBackend zswap;
  CompressedTierConfig config;
  config.label = "CT";
  const int ct = *zswap.AddTier(config, nvmm);
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  ASSERT_TRUE(tiers.AddByteTier(nvmm).ok());
  ASSERT_TRUE(tiers.AddCompressedTier(zswap.tier(ct)).ok());
  AddressSpace space;
  space.Allocate("a", 2 * kMiB, CorpusProfile::kNci);
  TieringEngine engine(space, tiers);
  ASSERT_TRUE(engine.PlaceInitial().ok());
  ASSERT_TRUE(engine.MigrateRegion(0, 2).ok());

  // Fill DRAM with foreign allocations so promotions cannot land there.
  while (dram.AllocFrame().ok()) {
  }
  engine.Access(0, false);
  EXPECT_EQ(engine.page_state(0).tier, 1);  // spilled to NVMM
  EXPECT_EQ(engine.total_faults(), 1u);
}

TEST(EngineEdgeTest, CorruptPromotionFailsLikeASerialLoadAtAnyThreadCount) {
  // A promotion whose compressed source no longer decodes must surface the
  // decoder's Status at that page, after committing exactly the pages, loads
  // and pool maps that sequential Loads in page order would have — however
  // many push threads decompress the region.
  constexpr std::uint64_t kCorruptPage = 37;
  struct Outcome {
    Status status;
    std::uint64_t loads = 0;
    std::uint64_t maps = 0;  // since the corruption, which maps once itself
    std::uint64_t migrated_pages = 0;
    std::vector<int> tiers;
  };
  auto run = [](int threads) {
    Observability obs;
    Medium dram(DramSpec(32 * kMiB));
    ZswapBackend zswap(obs);
    CompressedTierConfig config;
    config.label = "CT";
    config.algorithm = Algorithm::kDeflate;
    const int ct = *zswap.AddTier(config, dram);
    TierTable tiers;
    tiers.set_obs(&obs);
    EXPECT_TRUE(tiers.AddByteTier(dram).ok());
    EXPECT_TRUE(tiers.AddCompressedTier(zswap.tier(ct)).ok());
    AddressSpace space;
    space.Allocate("a", 2 * kMiB, CorpusProfile::kDickens);
    EngineConfig engine_config;
    engine_config.migrate_threads = threads;
    TieringEngine engine(space, tiers, engine_config);
    EXPECT_TRUE(engine.PlaceInitial().ok());
    auto demoted = engine.MigrateRegion(0, 1);
    EXPECT_TRUE(demoted.ok());
    EXPECT_EQ(demoted->moved, kPagesPerRegion);

    CompressedTier& tier = zswap.tier(ct);
    auto stored = tier.pool().Map(engine.page_state(kCorruptPage).location);
    EXPECT_TRUE(stored.ok());
    std::fill(stored->begin(), stored->end(), std::byte{0xff});
    const Counter& maps = obs.metrics.GetCounter("zpool/CT/maps");
    const std::uint64_t maps_before = maps.value();
    const std::uint64_t migrated_before = engine.total_migrated_pages();

    Outcome outcome;
    auto promoted = engine.PromoteRegion(0);
    outcome.status = promoted.status();
    outcome.loads = tier.stats().loads;
    outcome.maps = maps.value() - maps_before;
    outcome.migrated_pages = engine.total_migrated_pages() - migrated_before;
    for (std::uint64_t page = 0; page < kPagesPerRegion; ++page) {
      outcome.tiers.push_back(engine.page_state(page).tier);
    }
    return outcome;
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome outcome = run(threads);
    EXPECT_EQ(outcome.status.code(), StatusCode::kCorruption);
    EXPECT_EQ(outcome.status.message(), "deflate: bad header");
    EXPECT_EQ(outcome.loads, kCorruptPage);
    EXPECT_EQ(outcome.maps, kCorruptPage + 1);
    EXPECT_EQ(outcome.migrated_pages, 0u);  // the failed call commits no totals
    for (std::uint64_t page = 0; page < kPagesPerRegion; ++page) {
      ASSERT_EQ(outcome.tiers[page], page < kCorruptPage ? 0 : 1) << "page " << page;
    }
  }
}

TEST(EngineEdgeTest, MigrationInterferenceCharged) {
  Medium dram(DramSpec(32 * kMiB));
  Medium nvmm(NvmmSpec(32 * kMiB));
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  ASSERT_TRUE(tiers.AddByteTier(nvmm).ok());
  AddressSpace space;
  space.Allocate("a", 2 * kMiB, CorpusProfile::kBinary);

  EngineConfig config;
  config.migration_interference = 0.5;
  TieringEngine engine(space, tiers, config);
  ASSERT_TRUE(engine.PlaceInitial().ok());
  const Nanos before = engine.now();
  ASSERT_TRUE(engine.MigrateRegion(0, 1).ok());
  EXPECT_GT(engine.migration_ns(), 0u);
  // Half the migration work hits the application clock; none hits the
  // all-DRAM reference clock.
  const Nanos charged = engine.now() - before;
  EXPECT_EQ(charged, static_cast<Nanos>(engine.migration_ns() * 0.5));
  EXPECT_EQ(engine.optimal_now(), 0u);
}

TEST(EngineEdgeTest, DestructorReturnsFramesToMedia) {
  Medium dram(DramSpec(32 * kMiB));
  Medium nvmm(NvmmSpec(32 * kMiB));
  ZswapBackend zswap;
  CompressedTierConfig config;
  config.label = "CT";
  const int ct = *zswap.AddTier(config, nvmm);
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  ASSERT_TRUE(tiers.AddCompressedTier(zswap.tier(ct)).ok());
  AddressSpace space;
  space.Allocate("a", 4 * kMiB, CorpusProfile::kDickens);
  {
    TieringEngine engine(space, tiers);
    ASSERT_TRUE(engine.PlaceInitial().ok());
    ASSERT_TRUE(engine.MigrateRegion(1, 1).ok());
    EXPECT_GT(dram.used_frames(), 0u);
    EXPECT_GT(nvmm.used_frames(), 0u);
  }
  EXPECT_EQ(dram.used_frames(), 0u);
  EXPECT_EQ(nvmm.used_frames(), 0u);
  EXPECT_EQ(zswap.tier(ct).stored_pages(), 0u);
}

TEST(EngineEdgeTest, SlowdownIdentityWithoutTiering) {
  Medium dram(DramSpec(32 * kMiB));
  TierTable tiers;
  ASSERT_TRUE(tiers.AddByteTier(dram).ok());
  AddressSpace space;
  space.Allocate("a", 2 * kMiB, CorpusProfile::kBinary);
  TieringEngine engine(space, tiers);
  ASSERT_TRUE(engine.PlaceInitial().ok());
  for (int i = 0; i < 1000; ++i) {
    engine.AccessBulk((i % 512) * kPageSize, 1 + i % 16, i % 3 == 0);
    engine.Compute(100);
  }
  // Everything served from DRAM: perf_ovh (Eq. 5) is exactly zero.
  EXPECT_EQ(engine.perf_overhead(), 0u);
  EXPECT_DOUBLE_EQ(engine.Slowdown(), 1.0);
}

}  // namespace
}  // namespace tierscape
