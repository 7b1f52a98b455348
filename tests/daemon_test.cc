// TS-Daemon scheduling and accounting tests: window triggers (op-count vs
// virtual time), daemon cost charging, recommendation vs actual recording,
// and stray re-packing.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/analytical.h"
#include "src/core/tier_specs.h"
#include "src/core/ts_daemon.h"

namespace tierscape {
namespace {

class DaemonFixture : public ::testing::Test {
 protected:
  DaemonFixture() : system_(StandardMixConfig(64 * kMiB, 128 * kMiB)) {
    space_.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
    engine_ = std::make_unique<TieringEngine>(space_, system_.tiers(),
                                              EngineConfig{.pebs_period = 32});
    EXPECT_TRUE(engine_->PlaceInitial().ok());
  }

  TieredSystem system_;
  AddressSpace space_;
  std::unique_ptr<TieringEngine> engine_;
};

TEST_F(DaemonFixture, OpCountWindowsFireEveryN) {
  DaemonConfig config;
  config.mode = DaemonMode::kProfileOnly;
  config.window_ops = 100;
  TsDaemon daemon(*engine_, nullptr, config);
  for (int op = 0; op < 1000; ++op) {
    engine_->Access((op % 256) * kPageSize, false);
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
  }
  EXPECT_EQ(daemon.history().size(), 10u);
}

TEST_F(DaemonFixture, TimeWindowsFireOnVirtualClock) {
  DaemonConfig config;
  config.mode = DaemonMode::kProfileOnly;
  config.window_ops = 0;
  config.profile_window = kMilli;
  TsDaemon daemon(*engine_, nullptr, config);
  // Each op costs ~10us of compute: a window closes every ~100 ops.
  for (int op = 0; op < 500; ++op) {
    engine_->Compute(10 * kMicro);
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
  }
  EXPECT_GE(daemon.history().size(), 4u);
  EXPECT_LE(daemon.history().size(), 6u);
}

TEST_F(DaemonFixture, TelemetryCostCharged) {
  DaemonConfig config;
  config.mode = DaemonMode::kProfileOnly;
  config.window_ops = 50;
  config.per_sample_cost = 1000;
  TsDaemon daemon(*engine_, nullptr, config);
  for (int op = 0; op < 200; ++op) {
    engine_->Access((op % 64) * kPageSize, false);
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
  }
  // 200 accesses at period 32 -> ~6 samples x 1000ns charged.
  EXPECT_GT(daemon.charged_overhead_ns(), 0u);
  EXPECT_LE(daemon.charged_overhead_ns(), 10'000u);
}

TEST_F(DaemonFixture, RecommendationAndActualRecorded) {
  AnalyticalPolicy policy(0.2);
  DaemonConfig config;
  config.window_ops = 200;
  TsDaemon daemon(*engine_, &policy, config);
  // Touch only the first region: everything else is cold.
  for (int op = 0; op < 2000; ++op) {
    engine_->Access((op % 128) * kPageSize, false);
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
  }
  ASSERT_FALSE(daemon.history().empty());
  const auto& last = daemon.history().back();
  std::uint64_t recommended_total = 0;
  for (const std::uint64_t pages : last.recommended_pages) {
    recommended_total += pages;
  }
  EXPECT_EQ(recommended_total, space_.total_pages());
  std::uint64_t actual_total = 0;
  for (const std::uint64_t pages : last.actual_pages) {
    actual_total += pages;
  }
  EXPECT_EQ(actual_total, space_.total_pages());
  // Cold data must have been recommended (and moved) off DRAM.
  EXPECT_LT(last.recommended_pages[0], space_.total_pages());
  EXPECT_GT(last.tco_savings, 0.0);
}

TEST_F(DaemonFixture, RemoteSolverChargesRpcLatency) {
  auto run = [&](bool remote) {
    TieredSystem system(StandardMixConfig(64 * kMiB, 128 * kMiB));
    AddressSpace space;
    space.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
    TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 32});
    EXPECT_TRUE(engine.PlaceInitial().ok());
    AnalyticalPolicy policy(0.5);
    DaemonConfig config;
    config.window_ops = 500;
    config.remote_solver = remote;
    config.remote_rpc_latency = 5 * kMilli;  // exaggerated for visibility
    TsDaemon daemon(engine, &policy, config);
    for (int op = 0; op < 2000; ++op) {
      engine.Access((op % 512) * kPageSize, false);
      EXPECT_TRUE(daemon.Observe(AccessEvent{}).ok());
    }
    return daemon.charged_overhead_ns();
  };
  const Nanos local = run(false);
  const Nanos remote = run(true);
  // 4 windows x 5ms RPC dominates the modeled local per-cell cost.
  EXPECT_GT(remote, local);
  EXPECT_GE(remote, 4ull * 5 * kMilli);
}

TEST_F(DaemonFixture, StrayPagesRepackedWhenThresholdCrossed) {
  AnalyticalPolicy policy(0.0);  // everything to the cheapest tier
  DaemonConfig config;
  config.window_ops = 1000;
  config.filter.enable_hysteresis = false;
  config.filter.demotion_benefit_factor = 1e18;
  TsDaemon daemon(*engine_, &policy, config);
  // Window 1: everything demoted off DRAM.
  for (int op = 0; op < 1000; ++op) {
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
    engine_->Compute(100);
  }
  const auto placed = engine_->PagesPerTier();
  EXPECT_EQ(placed[0], 0u);
  // Fault more than 1/8 of region 0 back into DRAM.
  for (std::uint64_t page = 0; page < kPagesPerRegion / 4; ++page) {
    engine_->Access(page * kPageSize, false);
  }
  EXPECT_EQ(engine_->PagesPerTier()[0], kPagesPerRegion / 4);
  // Next window: the daemon must re-pack the strays down again.
  for (int op = 0; op < 1000; ++op) {
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
    engine_->Compute(100);
  }
  EXPECT_LT(engine_->PagesPerTier()[0], kPagesPerRegion / 8);
}

TEST_F(DaemonFixture, LocalSolveChargesEveryRegionTierCell) {
  // §8.4 local solve charge: every window pays regions x tiers x
  // solve_cost_per_cell, scaled by local_solver_interference. Engines without
  // their own Observability share the process-wide registry, so the counter
  // checks compare deltas over the run.
  for (const double interference : {1.0, 0.25}) {
    SCOPED_TRACE("interference=" + std::to_string(interference));
    TieredSystem system(StandardMixConfig(64 * kMiB, 128 * kMiB));
    AddressSpace space;
    space.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
    TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 32});
    ASSERT_TRUE(engine.PlaceInitial().ok());
    AnalyticalPolicy policy(0.5);
    DaemonConfig config;
    config.window_ops = 500;
    config.local_solver_interference = interference;
    MetricsRegistry& metrics = engine.obs().metrics;
    const RegistrySnapshot before = metrics.Snapshot();
    TsDaemon daemon(engine, &policy, config);
    for (int op = 0; op < 2000; ++op) {
      engine.Access((op % 512) * kPageSize, false);
      ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
    }
    const RegistrySnapshot delta = MetricsRegistry::Delta(before, metrics.Snapshot());

    const std::uint64_t cells = space.total_regions() * engine.tiers().count();
    const auto expected =
        static_cast<Nanos>(cells * config.solve_cost_per_cell * interference);
    ASSERT_EQ(daemon.history().size(), 4u);
    for (const auto& record : daemon.history()) {
      EXPECT_EQ(record.solve_cost_ns, expected) << "window " << record.window;
    }
    EXPECT_EQ(delta.Find("solver/cells")->count, 4 * cells);
    EXPECT_EQ(delta.Find("daemon/solve_ns")->count, 4 * expected);
  }
}

}  // namespace
}  // namespace tierscape
