// Tests for the PEBS-style sampler and the cooled hotness table.
#include <gtest/gtest.h>

#include "src/telemetry/hotness.h"
#include "src/telemetry/sampler.h"

namespace tierscape {
namespace {

TEST(SamplerTest, SamplesOneInPeriod) {
  PebsSampler sampler(100);
  for (int i = 0; i < 10000; ++i) {
    sampler.OnAccess(0, false);
  }
  EXPECT_EQ(sampler.total_events(), 10000u);
  EXPECT_EQ(sampler.total_samples(), 100u);
}

TEST(SamplerTest, AggregatesToRegions) {
  PebsSampler sampler(1);  // sample everything
  sampler.OnAccess(0, false);                    // region 0
  sampler.OnAccess(kRegionSize - 1, false);      // region 0
  sampler.OnAccess(kRegionSize, false);          // region 1
  sampler.OnAccess(5 * kRegionSize + 17, true);  // region 5

  auto window = sampler.DrainWindow();
  EXPECT_EQ(window[0], 2u);
  EXPECT_EQ(window[1], 1u);
  EXPECT_EQ(window[5], 1u);
  EXPECT_EQ(sampler.store_samples(), 1u);
}

TEST(SamplerTest, DrainClearsWindow) {
  PebsSampler sampler(1);
  sampler.OnAccess(0, false);
  EXPECT_FALSE(sampler.DrainWindow().empty());
  EXPECT_TRUE(sampler.DrainWindow().empty());
  // Totals are cumulative across windows.
  EXPECT_EQ(sampler.total_samples(), 1u);
}

TEST(SamplerTest, BulkAccessesCountAllLines) {
  PebsSampler sampler(64);
  sampler.OnAccessN(0, 640, false);
  EXPECT_EQ(sampler.total_events(), 640u);
  EXPECT_EQ(sampler.total_samples(), 10u);
  auto window = sampler.DrainWindow();
  EXPECT_EQ(window[0], 10u);
}

TEST(HotnessTest, TracksAndDefaultsToCold) {
  HotnessTable table;
  table.Track(7);
  EXPECT_DOUBLE_EQ(table.Hotness(7), 0.0);
  EXPECT_DOUBLE_EQ(table.Hotness(99), 0.0);  // unknown regions read as cold
  EXPECT_EQ(table.tracked_regions(), 1u);
}

TEST(HotnessTest, AccumulatesSamples) {
  HotnessTable table;
  table.Track(1);
  table.EndWindow({{1, 10}});
  EXPECT_DOUBLE_EQ(table.Hotness(1), 10.0);
  table.EndWindow({{1, 4}});
  // Halved then incremented: 10/2 + 4.
  EXPECT_DOUBLE_EQ(table.Hotness(1), 9.0);
}

TEST(HotnessTest, GradualCooling) {
  // §3.1: hot pages do not become cold instantaneously — they decay by half
  // per window.
  HotnessTable table;
  table.Track(1);
  table.EndWindow({{1, 64}});
  for (int window = 0; window < 3; ++window) {
    table.EndWindow({});
  }
  EXPECT_DOUBLE_EQ(table.Hotness(1), 8.0);  // 64 / 2^3
}

TEST(HotnessTest, PercentileThreshold) {
  HotnessTable table;
  for (std::uint64_t region = 0; region < 100; ++region) {
    table.Track(region);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> samples;
  for (std::uint64_t region = 0; region < 100; ++region) {
    samples[region] = static_cast<std::uint32_t>(region);  // hotness == region id
  }
  table.EndWindow(samples);
  // 25th percentile of 0..99 is ~24.75.
  EXPECT_NEAR(table.Percentile(25.0), 24.75, 0.1);
  EXPECT_NEAR(table.Percentile(75.0), 74.25, 0.1);
  EXPECT_DOUBLE_EQ(table.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(table.Percentile(100.0), 99.0);
}

TEST(HotnessTest, SnapshotSortedByRegion) {
  HotnessTable table;
  table.Track(5);
  table.Track(1);
  table.Track(3);
  const auto snapshot = table.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, 1u);
  EXPECT_EQ(snapshot[1].first, 3u);
  EXPECT_EQ(snapshot[2].first, 5u);
}

TEST(HotnessTest, UntrackedSampledRegionBecomesTracked) {
  HotnessTable table;
  table.EndWindow({{9, 3}});
  EXPECT_DOUBLE_EQ(table.Hotness(9), 3.0);
}

}  // namespace
}  // namespace tierscape
