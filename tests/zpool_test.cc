// Tests for the three pool managers: packing properties (zbud <= 2/page,
// z3fold <= 3/page, zsmalloc dense), data integrity, capacity behaviour, the
// uncounted Peek read, and a randomized property test across all managers.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/medium.h"
#include "src/obs/metrics.h"
#include "src/zpool/zpool.h"

namespace tierscape {
namespace {

std::vector<std::byte> Blob(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> data(size);
  Rng rng(seed);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.Next() & 0xff);
  }
  return data;
}

class ZPoolTest : public ::testing::TestWithParam<int> {
 protected:
  ZPoolTest() : medium_(DramSpec(16 * kMiB)) {
    pool_ = CreateZPool(static_cast<PoolManager>(GetParam()), medium_);
  }

  Medium medium_;
  std::unique_ptr<ZPool> pool_;
};

TEST_P(ZPoolTest, StoresAndRetrievesData) {
  const auto blob = Blob(1000, 1);
  auto handle = pool_->Alloc(blob.size());
  ASSERT_TRUE(handle.ok());
  auto span = pool_->Map(*handle);
  ASSERT_TRUE(span.ok());
  ASSERT_EQ(span->size(), blob.size());
  std::memcpy(span->data(), blob.data(), blob.size());

  auto again = pool_->Map(*handle);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::memcmp(again->data(), blob.data(), blob.size()), 0);
}

TEST_P(ZPoolTest, ManyObjectsKeepDistinctContents) {
  std::map<ZPoolHandle, std::vector<std::byte>> stored;
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const std::size_t size = 64 + rng.NextBelow(1800);
    auto handle = pool_->Alloc(size);
    ASSERT_TRUE(handle.ok());
    auto blob = Blob(size, 1000 + i);
    auto span = pool_->Map(*handle);
    ASSERT_TRUE(span.ok());
    std::memcpy(span->data(), blob.data(), size);
    ASSERT_TRUE(stored.emplace(*handle, std::move(blob)).second)
        << "duplicate handle from " << pool_->name();
  }
  for (const auto& [handle, blob] : stored) {
    auto span = pool_->Map(handle);
    ASSERT_TRUE(span.ok());
    ASSERT_EQ(span->size(), blob.size());
    EXPECT_EQ(std::memcmp(span->data(), blob.data(), blob.size()), 0);
  }
  EXPECT_EQ(pool_->object_count(), 300u);
}

TEST_P(ZPoolTest, FreeReleasesPagesEventually) {
  std::vector<ZPoolHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(pool_->Alloc(900).value());
  }
  EXPECT_GT(pool_->pool_pages(), 0u);
  for (ZPoolHandle handle : handles) {
    ASSERT_TRUE(pool_->Free(handle).ok());
  }
  EXPECT_EQ(pool_->object_count(), 0u);
  EXPECT_EQ(pool_->pool_pages(), 0u);
  EXPECT_EQ(medium_.used_frames(), 0u);
}

TEST_P(ZPoolTest, RejectsOversizedAndZero) {
  EXPECT_FALSE(pool_->Alloc(0).ok());
  EXPECT_FALSE(pool_->Alloc(kPageSize + 1).ok());
}

TEST_P(ZPoolTest, DoubleFreeFails) {
  auto handle = pool_->Alloc(500);
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(pool_->Free(*handle).ok());
  EXPECT_FALSE(pool_->Free(*handle).ok());
  EXPECT_FALSE(pool_->Map(*handle).ok());
}

TEST_P(ZPoolTest, MediumExhaustionSurfacesAsError) {
  Medium tiny(DramSpec(8 * kPageSize));
  auto pool = CreateZPool(static_cast<PoolManager>(GetParam()), tiny);
  std::vector<ZPoolHandle> handles;
  for (;;) {
    auto handle = pool->Alloc(3000);  // ~1 object per page for all managers
    if (!handle.ok()) {
      EXPECT_EQ(handle.status().code(), StatusCode::kOutOfMemory);
      break;
    }
    handles.push_back(*handle);
    ASSERT_LT(handles.size(), 100u);
  }
  EXPECT_GE(handles.size(), 6u);
}

// Randomized property: alloc/write/verify/free interleavings never corrupt
// neighbouring objects.
TEST_P(ZPoolTest, RandomizedIntegrity) {
  Rng rng(GetParam() * 31 + 5);
  std::map<ZPoolHandle, std::vector<std::byte>> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.size() < 50 && rng.NextBelow(100) < 65) {
      const std::size_t size = 40 + rng.NextBelow(3000);
      auto handle = pool_->Alloc(size);
      if (!handle.ok()) {
        continue;
      }
      auto blob = Blob(size, step);
      auto span = pool_->Map(*handle);
      ASSERT_TRUE(span.ok());
      std::memcpy(span->data(), blob.data(), size);
      live.emplace(*handle, std::move(blob));
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      auto span = pool_->Map(it->first);
      ASSERT_TRUE(span.ok());
      ASSERT_EQ(std::memcmp(span->data(), it->second.data(), it->second.size()), 0)
          << pool_->name() << " corrupted an object at step " << step;
      ASSERT_TRUE(pool_->Free(it->first).ok());
      live.erase(it);
    }
  }
  for (const auto& [handle, blob] : live) {
    auto span = pool_->Map(handle);
    ASSERT_TRUE(span.ok());
    EXPECT_EQ(std::memcmp(span->data(), blob.data(), blob.size()), 0);
  }
}

// Peek is the uncounted read of the migration fan-out's phase-1 workers (and
// perfbench's pool probe): it must see exactly what Map sees, leave the
// instrumented pool's `maps` counter alone, and fail like Map on a freed
// handle.
TEST_P(ZPoolTest, PeekMatchesMapWithoutCounting) {
  MetricsRegistry metrics;
  auto pool = CreateZPool(static_cast<PoolManager>(GetParam()), medium_, metrics, "P");
  const Counter& maps = metrics.GetCounter("zpool/P/maps");
  const auto blob = Blob(1500, 9);
  auto handle = pool->Alloc(blob.size());
  ASSERT_TRUE(handle.ok());
  auto span = pool->Map(*handle);
  ASSERT_TRUE(span.ok());
  std::memcpy(span->data(), blob.data(), blob.size());
  EXPECT_EQ(maps.value(), 1u);

  auto peeked = pool->Peek(*handle);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(maps.value(), 1u);
  auto mapped = pool->Map(*handle);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(maps.value(), 2u);
  ASSERT_EQ(peeked->size(), blob.size());
  ASSERT_EQ(mapped->size(), blob.size());
  EXPECT_EQ(std::memcmp(peeked->data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(std::memcmp(peeked->data(), mapped->data(), blob.size()), 0);

  ASSERT_TRUE(pool->Free(*handle).ok());
  const auto peek_freed = pool->Peek(*handle);
  const auto map_freed = pool->Map(*handle);
  ASSERT_FALSE(peek_freed.ok());
  ASSERT_FALSE(map_freed.ok());
  EXPECT_EQ(peek_freed.status().code(), map_freed.status().code());
  EXPECT_EQ(peek_freed.status().code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(AllManagers, ZPoolTest, ::testing::Range(0, kPoolManagerCount),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::string(
                               PoolManagerName(static_cast<PoolManager>(param_info.param)));
                         });

// ---------------------------------------------------------------------------
// Manager-specific packing properties (§2).
// ---------------------------------------------------------------------------

TEST(ZbudTest, PacksTwoObjectsPerPage) {
  Medium medium(DramSpec(16 * kMiB));
  auto pool = CreateZPool(PoolManager::kZbud, medium);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool->Alloc(1800).ok());  // two 1800B objects fit one page
  }
  EXPECT_EQ(pool->pool_pages(), 50u);
}

TEST(ZbudTest, SavingsCappedAtHalf) {
  // Even tiny objects occupy half a page each: max 50% savings (§2).
  Medium medium(DramSpec(16 * kMiB));
  auto pool = CreateZPool(PoolManager::kZbud, medium);
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(pool->Alloc(64).ok());
  }
  EXPECT_EQ(pool->pool_pages(), 64u);
}

TEST(Z3foldTest, PacksThreeObjectsPerPage) {
  Medium medium(DramSpec(16 * kMiB));
  auto pool = CreateZPool(PoolManager::kZ3fold, medium);
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(pool->Alloc(1200).ok());  // three 1200B objects per page
  }
  EXPECT_EQ(pool->pool_pages(), 33u);
}

TEST(ZsmallocTest, DensePacking) {
  // zsmalloc packs far more than 3 small objects per page (§2).
  Medium medium(DramSpec(16 * kMiB));
  auto pool = CreateZPool(PoolManager::kZsmalloc, medium);
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(pool->Alloc(128).ok());
  }
  // 512 x 128B = 64 KiB of payload; dense packing needs ~16-17 pages.
  EXPECT_LE(pool->pool_pages(), 20u);
}

TEST(ZsmallocTest, DensityBeatsZbudAndZ3fold) {
  Medium m1(DramSpec(16 * kMiB));
  Medium m2(DramSpec(16 * kMiB));
  Medium m3(DramSpec(16 * kMiB));
  auto zsmalloc = CreateZPool(PoolManager::kZsmalloc, m1);
  auto zbud = CreateZPool(PoolManager::kZbud, m2);
  auto z3fold = CreateZPool(PoolManager::kZ3fold, m3);
  // Enough objects for zsmalloc's size classes to fill their zspages (the
  // kernel's density advantage is an at-scale property).
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t size = 300 + rng.NextBelow(1500);
    ASSERT_TRUE(zsmalloc->Alloc(size).ok());
    ASSERT_TRUE(zbud->Alloc(size).ok());
    ASSERT_TRUE(z3fold->Alloc(size).ok());
  }
  EXPECT_LE(zsmalloc->pool_pages(), z3fold->pool_pages());
  EXPECT_LE(z3fold->pool_pages(), zbud->pool_pages());
}

TEST(ZPoolOverheadTest, ManagementCostOrdering) {
  Medium medium(DramSpec(kMiB));
  auto zbud = CreateZPool(PoolManager::kZbud, medium);
  auto z3fold = CreateZPool(PoolManager::kZ3fold, medium);
  auto zsmalloc = CreateZPool(PoolManager::kZsmalloc, medium);
  // §2: zsmalloc has the highest management overheads, zbud the lowest.
  EXPECT_LT(zbud->map_overhead_ns(), z3fold->map_overhead_ns());
  EXPECT_LT(z3fold->map_overhead_ns(), zsmalloc->map_overhead_ns());
}

TEST(ZPoolRegistryTest, NamesRoundTrip) {
  for (int m = 0; m < kPoolManagerCount; ++m) {
    const auto manager = static_cast<PoolManager>(m);
    auto parsed = PoolManagerFromName(PoolManagerName(manager));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, manager);
  }
  EXPECT_FALSE(PoolManagerFromName("slab").ok());
}

}  // namespace
}  // namespace tierscape
