// Tests for the content-versioned compression cache and its integration with
// the migration pipeline: hits on repeat stores of unchanged pages, misses
// after DirtyPage version bumps, eviction accounting, and the determinism
// guarantee that cached and uncached migrations produce identical results.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/common/logging.h"
#include "src/compress/compression_cache.h"
#include "src/mem/medium.h"
#include "src/tiering/address_space.h"
#include "src/tiering/engine.h"
#include "src/tiering/tier_table.h"
#include "src/zswap/zswap.h"

namespace tierscape {
namespace {

// One region of compressible text over DRAM + a zswap tier on NVMM. Owns all
// the pieces so two rigs (e.g. cache on/off) can run the same script.
struct Rig {
  explicit Rig(EngineConfig config, Algorithm algorithm = Algorithm::kLzo)
      : dram(DramSpec(32 * kMiB)), nvmm(NvmmSpec(64 * kMiB)) {
    CompressedTierConfig ct_config;
    ct_config.label = "CT";
    ct_config.algorithm = algorithm;
    ct = *zswap.AddTier(ct_config, nvmm);
    TS_CHECK(tiers.AddByteTier(dram).ok());
    TS_CHECK(tiers.AddByteTier(nvmm).ok());
    TS_CHECK(tiers.AddCompressedTier(zswap.tier(ct)).ok());
    space.Allocate("a", 2 * kMiB, CorpusProfile::kDickens);
    engine = std::make_unique<TieringEngine>(space, tiers, config);
    TS_CHECK(engine->PlaceInitial().ok());
  }

  // Read-faults every compressed page back to DRAM (no version bumps).
  void PromoteAll() {
    for (std::uint64_t page = 0; page < space.total_pages(); ++page) {
      if (tiers.tier(engine->page_state(page).tier).kind == TierKind::kCompressed) {
        engine->Access(page * kPageSize, /*is_store=*/false);
      }
    }
  }

  Medium dram;
  Medium nvmm;
  ZswapBackend zswap;
  int ct = -1;
  TierTable tiers;
  AddressSpace space;
  std::unique_ptr<TieringEngine> engine;
};

TEST(CompressionCacheTest, HitsOnRepeatMigrationOfUnchangedPages) {
  Rig rig(EngineConfig{});
  const auto* cache = rig.engine->compression_cache();
  ASSERT_NE(cache, nullptr);

  auto moved = rig.engine->MigrateRegion(0, 2);
  ASSERT_TRUE(moved.ok());
  ASSERT_GT(moved->moved, 0u);
  const std::uint64_t first_lookups = cache->stats().hits + cache->stats().misses;
  EXPECT_EQ(cache->stats().hits, 0u);  // cold cache: every lookup misses
  EXPECT_EQ(first_lookups, cache->stats().misses);
  EXPECT_GT(cache->cached_bytes(), 0u);

  // Fault everything back (reads only — versions unchanged), then repeat the
  // migration: every page that was cached now hits.
  rig.PromoteAll();
  const std::uint64_t misses_before = cache->stats().misses;
  auto again = rig.engine->MigrateRegion(0, 2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->moved, moved->moved);
  EXPECT_EQ(cache->stats().hits, moved->moved);
  EXPECT_EQ(cache->stats().misses, misses_before);  // no new misses
  EXPECT_GT(cache->stats().HitRate(), 0.0);
}

TEST(CompressionCacheTest, DirtyPageInvalidatesExactlyTheStoredPages) {
  Rig rig(EngineConfig{});
  const auto* cache = rig.engine->compression_cache();
  ASSERT_TRUE(rig.engine->MigrateRegion(0, 2).ok());
  rig.PromoteAll();

  // Store to 7 pages: DirtyPage bumps their versions, so exactly those slots
  // go stale while every other page still hits.
  constexpr std::uint64_t kDirtied = 7;
  for (std::uint64_t page = 0; page < kDirtied; ++page) {
    rig.engine->Access(page * kPageSize, /*is_store=*/true);
  }
  const std::uint64_t hits_before = cache->stats().hits;
  const std::uint64_t misses_before = cache->stats().misses;
  auto moved = rig.engine->MigrateRegion(0, 2);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(cache->stats().misses - misses_before, kDirtied);
  EXPECT_EQ(cache->stats().hits - hits_before, moved->moved - kDirtied);
}

TEST(CompressionCacheTest, AlgorithmChangeEvictsAndRecounts) {
  // Second compressed tier with a different algorithm: its stores miss the
  // slots cached under the first algorithm and overwrite them (evictions).
  EngineConfig config;
  Rig rig(config);
  CompressedTierConfig other;
  other.label = "CT2";
  other.algorithm = Algorithm::kDeflate;
  const int ct2 = *rig.zswap.AddTier(other, rig.nvmm);
  ASSERT_TRUE(rig.tiers.AddCompressedTier(rig.zswap.tier(ct2)).ok());
  // Rebuild the engine so it sees the 4-tier table.
  rig.engine = std::make_unique<TieringEngine>(rig.space, rig.tiers, config);
  ASSERT_TRUE(rig.engine->PlaceInitial().ok());
  const auto* cache = rig.engine->compression_cache();

  auto first = rig.engine->MigrateRegion(0, 2);  // cache fills under kLzo
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache->stats().evictions, 0u);
  rig.PromoteAll();
  auto second = rig.engine->MigrateRegion(0, 3);  // kDeflate: all miss
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache->stats().hits, 0u);
  // Every page cached under kLzo that deflate re-stored was overwritten.
  EXPECT_GT(cache->stats().evictions, 0u);
  EXPECT_LE(cache->stats().evictions, first->moved);
}

TEST(CompressionCacheTest, CachedAndUncachedMigrationsIdentical) {
  // The cache must never change results: run the same migrate / fault /
  // dirty / re-migrate script with the cache on and off and compare every
  // virtual-time observable.
  EngineConfig cached_config;
  cached_config.compression_cache = true;
  EngineConfig uncached_config;
  uncached_config.compression_cache = false;
  Rig cached(cached_config);
  Rig uncached(uncached_config);
  ASSERT_EQ(uncached.engine->compression_cache(), nullptr);

  const auto script = [](Rig& rig) {
    TS_CHECK(rig.engine->MigrateRegion(0, 2).ok());
    rig.PromoteAll();
    for (std::uint64_t page = 0; page < 16; ++page) {
      rig.engine->Access(page * kPageSize, /*is_store=*/true);
    }
    TS_CHECK(rig.engine->MigrateRegion(0, 2).ok());
  };
  script(cached);
  script(uncached);
  EXPECT_GT(cached.engine->compression_cache()->stats().hits, 0u);

  EXPECT_EQ(cached.engine->now(), uncached.engine->now());
  EXPECT_EQ(cached.engine->migration_ns(), uncached.engine->migration_ns());
  EXPECT_EQ(cached.engine->total_migrated_pages(), uncached.engine->total_migrated_pages());
  EXPECT_EQ(cached.engine->total_faults(), uncached.engine->total_faults());
  EXPECT_EQ(cached.engine->PagesPerTier(), uncached.engine->PagesPerTier());
  EXPECT_DOUBLE_EQ(cached.engine->CurrentTco(), uncached.engine->CurrentTco());
  for (std::uint64_t page = 0; page < cached.space.total_pages(); ++page) {
    const auto& a = cached.engine->page_state(page);
    const auto& b = uncached.engine->page_state(page);
    ASSERT_EQ(a.tier, b.tier) << "page " << page;
    ASSERT_EQ(a.location, b.location) << "page " << page;
    ASSERT_EQ(a.compressed_size, b.compressed_size) << "page " << page;
    ASSERT_EQ(a.checksum, b.checksum) << "page " << page;
  }
  const auto& cstats = cached.zswap.tier(cached.ct).stats();
  const auto& ustats = uncached.zswap.tier(uncached.ct).stats();
  EXPECT_EQ(cstats.stores, ustats.stores);
  EXPECT_EQ(cstats.rejects, ustats.rejects);
  EXPECT_EQ(cstats.loads, ustats.loads);
}

TEST(CompressionCacheTest, ThreadCountDoesNotChangeCacheCounters) {
  // Lookups in the parallel probe phase are read-only; counters advance only
  // in the sequential apply phase, so stats are thread-count-independent —
  // and migration with check_tier_counts on cross-checks placement too.
  EngineConfig serial_config;
  serial_config.migrate_threads = 1;
  serial_config.check_tier_counts = true;
  EngineConfig pooled_config = serial_config;
  pooled_config.migrate_threads = 4;
  Rig serial(serial_config);
  Rig pooled(pooled_config);

  const auto script = [](Rig& rig) {
    TS_CHECK(rig.engine->MigrateRegion(0, 2).ok());
    rig.PromoteAll();
    TS_CHECK(rig.engine->MigrateRegion(0, 2).ok());
  };
  script(serial);
  script(pooled);

  const auto& a = serial.engine->compression_cache()->stats();
  const auto& b = pooled.engine->compression_cache()->stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(serial.engine->now(), pooled.engine->now());
  EXPECT_EQ(serial.engine->PagesPerTier(), pooled.engine->PagesPerTier());
}

TEST(CompressionCacheTest, UnitInsertLookupAndEvictionStats) {
  CompressionCache cache(4);
  EXPECT_EQ(cache.page_slots(), 4u);
  const std::vector<std::byte> blob(100, std::byte{0x5a});
  EXPECT_EQ(cache.Lookup(1, 0, Algorithm::kLzo), nullptr);
  cache.Insert(1, 0, Algorithm::kLzo, 0xabcd, blob);
  const auto* entry = cache.Lookup(1, 0, Algorithm::kLzo);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->compressed_size, 100u);
  EXPECT_EQ(entry->checksum, 0xabcdu);
  EXPECT_EQ(cache.cached_bytes(), 100u);
  // Wrong version / algorithm / page all miss.
  EXPECT_EQ(cache.Lookup(1, 1, Algorithm::kLzo), nullptr);
  EXPECT_EQ(cache.Lookup(1, 0, Algorithm::kZstd), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0, Algorithm::kLzo), nullptr);
  // Re-inserting the same key is a no-op, not an eviction.
  cache.Insert(1, 0, Algorithm::kLzo, 0xabcd, blob);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // A newer version overwrites the slot and counts as an eviction.
  const std::vector<std::byte> blob2(40, std::byte{0x11});
  cache.Insert(1, 1, Algorithm::kLzo, 0xef01, blob2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.cached_bytes(), 40u);
  EXPECT_EQ(cache.Lookup(1, 0, Algorithm::kLzo), nullptr);
  ASSERT_NE(cache.Lookup(1, 1, Algorithm::kLzo), nullptr);
  cache.RecordLookup(true);
  cache.RecordLookup(false);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

}  // namespace
}  // namespace tierscape
