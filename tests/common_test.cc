// Unit tests for src/common: status, RNG distributions, histograms, the
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace tierscape {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = OutOfMemory("pool full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(status.ToString(), "OUT_OF_MEMORY: pool full");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 3);
}

TEST(SplitSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(SplitSeed(42, 7), SplitSeed(42, 7));
  // Adjacent indices and adjacent bases must not collide or correlate the
  // way `base + index` does (SplitSeed(s, 1) vs SplitSeed(s + 1, 0)).
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 1), SplitSeed(43, 0));
  EXPECT_NE(SplitSeed(0, 0), SplitSeed(0, 1));
  // Streams seeded from adjacent indices diverge immediately.
  Rng a(SplitSeed(5, 0));
  Rng b(SplitSeed(5, 1));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 3);
}

TEST(SplitSeedTest, IndexFanOutIsCollisionFreeAtSmallScale) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.push_back(SplitSeed(0xF16, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_TRUE(std::adjacent_find(seeds.begin(), seeds.end()) == seeds.end());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfianTest, SkewsTowardHead) {
  const std::uint64_t n = 1000;
  ZipfianGenerator gen(n, 0.99, 77, /*scrambled=*/false);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    ++counts[gen.Next()];
  }
  // Rank 0 must dominate, and the head must carry a large share.
  int head = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    head += counts[r];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(head, 100000 / 4);
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  const std::uint64_t n = 1000;
  ZipfianGenerator gen(n, 0.99, 77, /*scrambled=*/true);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    ++counts[gen.Next()];
  }
  // The hottest key should not be key 0 in general (scrambling moved it).
  std::uint64_t hottest = 0;
  int best = 0;
  for (const auto& [key, count] : counts) {
    if (count > best) {
      best = count;
      hottest = key;
    }
  }
  EXPECT_NE(hottest, 0u);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator gen(100, 0.9, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(), 100u);
  }
}

TEST(GaussianGeneratorTest, CentersMidKeyspace) {
  GaussianGenerator gen(10000, 1.0 / 6.0, 8);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = gen.Next();
    EXPECT_LT(v, 10000u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 5000.0, 100.0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_NEAR(h.Mean(), 15.5, 1e-9);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.NextBelow(1'000'000));
  }
  const std::uint64_t p50 = h.Percentile(0.50);
  const std::uint64_t p95 = h.Percentile(0.95);
  const std::uint64_t p999 = h.Percentile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p999);
  // Uniform distribution: p50 near 500k within bucket error (~3%).
  EXPECT_NEAR(static_cast<double>(p50), 500'000.0, 500'000.0 * 0.05);
}

TEST(HistogramTest, BoundedRelativeError) {
  Histogram h(5);  // 1/32 resolution
  const std::uint64_t value = 123'456'789;
  h.Record(value);
  const std::uint64_t p = h.Percentile(1.0);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value),
              static_cast<double>(value) / 16.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
}

TEST(HistogramTest, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  h.Record(7);  // below sub_bucket_count: exact bucketing
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.Percentile(0.0), 7u);
  EXPECT_EQ(h.Percentile(0.5), 7u);
  EXPECT_EQ(h.Percentile(1.0), 7u);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_EQ(h.Percentile(-1.0), 7u);
  EXPECT_EQ(h.Percentile(2.0), 7u);
}

TEST(HistogramTest, ExtremeValueLandsInTopBucket) {
  Histogram h;
  const std::uint64_t value = ~std::uint64_t{0};
  h.Record(value);
  EXPECT_EQ(h.max(), value);
  // The reported percentile is a bucket midpoint within the log-linear
  // relative error, capped at the recorded max — never beyond it.
  const std::uint64_t p = h.Percentile(1.0);
  EXPECT_LE(p, value);
  EXPECT_GE(static_cast<double>(p), static_cast<double>(value) * (1.0 - 1.0 / 16.0));
}

TEST(HistogramTest, RecordZeroCountIsNoOp) {
  Histogram h;
  h.RecordN(42, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, MergeWithEmptyPreservesStats) {
  Histogram a;
  Histogram empty;
  a.Record(10);
  a.Record(30);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 10u);
  EXPECT_EQ(empty.max(), 30u);
}

TEST(HistogramTest, ResetRestoresEmptyState) {
  Histogram h;
  h.Record(123'456);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  h.Record(5);
  EXPECT_EQ(h.Percentile(1.0), 5u);
}

TEST(ExactPercentileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(ExactPercentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(ExactPercentile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(ExactPercentile({}, 0.5), 0.0);
}

TEST(UnitsTest, Constants) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kRegionSize, 2u * 1024 * 1024);
  EXPECT_EQ(kPagesPerRegion, 512u);
}

TEST(SplitMixTest, Avalanche) {
  // Flipping one input bit should flip ~half the output bits.
  int total = 0;
  for (std::uint64_t x = 0; x < 100; ++x) {
    total += __builtin_popcountll(SplitMix64(x) ^ SplitMix64(x ^ 1));
  }
  EXPECT_GT(total / 100, 20);
  EXPECT_LT(total / 100, 44);
}

// Threads of this process, as the kernel lists them.
std::size_t ProcessThreads() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

TEST(ThreadPoolTest, HostThreadsIsClampedToOneThroughEight) {
  EXPECT_GE(HostThreads(), 1);
  EXPECT_LE(HostThreads(), 8);
}

TEST(ThreadPoolTest, SpawnsWorkersOnlyForABatchOfTwoOrMore) {
  const std::size_t before = ProcessThreads();
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);  // the configured count, before any spawn
  std::vector<int> calls(1);
  for (int batch = 0; batch < 8; ++batch) {
    pool.ParallelFor(batch % 2, [&](std::size_t i) { calls[i] += 1; });
  }
  EXPECT_EQ(calls[0], 4);
  EXPECT_EQ(ProcessThreads(), before);

  std::vector<std::size_t> slots(16);
  pool.ParallelFor(slots.size(), [&](std::size_t i) { slots[i] = i; });
  // Three workers (the caller is the fourth); a sanitizer runtime may start a
  // helper thread of its own alongside the first one.
  EXPECT_GE(ProcessThreads(), before + 3);
  EXPECT_EQ(pool.threads(), 4);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i);
  }
}

TEST(ThreadPoolTest, ResultsIdenticalForEveryPoolSize) {
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out;
    for (std::size_t n : {0, 1, 2, 3, 64, 1000}) {
      std::vector<std::uint64_t> slots(n);
      pool.ParallelFor(n, [&](std::size_t i) { slots[i] = SplitMix64(n * 7919 + i); });
      out.insert(out.end(), slots.begin(), slots.end());
    }
    return out;
  };
  const std::vector<std::uint64_t> serial = run(1);
  for (int threads : {2, 4, 8, HostThreads()}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tierscape
