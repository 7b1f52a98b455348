// Tests for the core TierScape components: tier specs, the cost model
// (Eqs. 1-10), the placement policies, the migration filter, and the
// TS-Daemon loop end to end on a small system.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/analytical.h"
#include "src/core/baselines.h"
#include "src/core/cost_model.h"
#include "src/core/migration_filter.h"
#include "src/core/tier_specs.h"
#include "src/core/ts_daemon.h"
#include "src/core/waterfall.h"
#include "src/fault/fault_injector.h"

namespace tierscape {
namespace {

TEST(TierSpecsTest, TwelveCharacterizedTiers) {
  const auto specs = CharacterizedTierSpecs();
  ASSERT_EQ(specs.size(), 12u);
  EXPECT_EQ(specs[0].label, "C1");
  EXPECT_EQ(specs[11].label, "C12");
  // C1 = zbud/lz4/DRAM (best performance, §5.1).
  EXPECT_EQ(specs[0].algorithm, Algorithm::kLz4);
  EXPECT_EQ(specs[0].pool_manager, PoolManager::kZbud);
  EXPECT_EQ(specs[0].backing, MediumKind::kDram);
  // C7 = zsmalloc/lzo/DRAM — the GSwap production tier.
  EXPECT_EQ(specs[6].label, "C7");
  EXPECT_EQ(specs[6].algorithm, Algorithm::kLzo);
  EXPECT_EQ(specs[6].pool_manager, PoolManager::kZsmalloc);
  EXPECT_EQ(specs[6].backing, MediumKind::kDram);
  // C12 = zsmalloc/deflate/NVMM (best TCO savings).
  EXPECT_EQ(specs[11].algorithm, Algorithm::kDeflate);
  EXPECT_EQ(specs[11].pool_manager, PoolManager::kZsmalloc);
  EXPECT_EQ(specs[11].backing, MediumKind::kNvmm);
}

TEST(TierSpecsTest, ProductionTierLabels) {
  auto ct1 = TierSpecByLabel("CT-1");
  ASSERT_TRUE(ct1.ok());
  EXPECT_EQ(ct1->algorithm, Algorithm::kLzo);
  auto ct2 = TierSpecByLabel("CT-2");
  ASSERT_TRUE(ct2.ok());
  EXPECT_EQ(ct2->algorithm, Algorithm::kZstd);
  EXPECT_EQ(ct2->backing, MediumKind::kNvmm);
  EXPECT_FALSE(TierSpecByLabel("C99").ok());
}

TEST(TieredSystemTest, StandardMixAssembly) {
  TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
  ASSERT_EQ(system.tiers().count(), 4);
  EXPECT_EQ(system.tiers().tier(0).label, "DRAM");
  EXPECT_EQ(system.tiers().tier(1).label, "NVMM");
  EXPECT_EQ(system.tiers().tier(2).label, "CT-1");
  EXPECT_EQ(system.tiers().tier(3).label, "CT-2");
  // CT-1 lives on DRAM, CT-2 on NVMM.
  EXPECT_EQ(system.tiers().tier(2).compressed->medium().kind(), MediumKind::kDram);
  EXPECT_EQ(system.tiers().tier(3).compressed->medium().kind(), MediumKind::kNvmm);
}

TEST(TieredSystemTest, SpectrumAssembly) {
  TieredSystem system(SpectrumConfig(64 * kMiB, 256 * kMiB));
  ASSERT_EQ(system.tiers().count(), 6);  // DRAM + 5 compressed tiers
  EXPECT_EQ(system.tiers().tier(0).label, "DRAM");
  EXPECT_EQ(system.tiers().FindByLabel("C1"), 1);
  EXPECT_EQ(system.tiers().FindByLabel("C12"), 5);
  // No NVMM byte tier in the spectrum assembly (§8.3).
  EXPECT_EQ(system.tiers().FindByLabel("NVMM"), -1);
}

class CostModelFixture : public ::testing::Test {
 protected:
  CostModelFixture() : system_(StandardMixConfig(64 * kMiB, 256 * kMiB)) {
    space_.Allocate("text", 4 * kMiB, CorpusProfile::kDickens);
    space_.Allocate("random", 2 * kMiB, CorpusProfile::kRandom);
    model_ = std::make_unique<CostModel>(system_.tiers(), space_, 128);
  }

  TieredSystem system_;
  AddressSpace space_;
  std::unique_ptr<CostModel> model_;
};

TEST_F(CostModelFixture, DramIsFreeAndFastest) {
  EXPECT_DOUBLE_EQ(model_->RegionPerfCost(0, 10.0, 0), 0.0);
  for (int tier = 1; tier < system_.tiers().count(); ++tier) {
    EXPECT_GT(model_->RegionPerfCost(0, 10.0, tier), 0.0) << tier;
  }
}

TEST_F(CostModelFixture, ColdRegionsCostNothingAnywhere) {
  for (int tier = 0; tier < system_.tiers().count(); ++tier) {
    EXPECT_DOUBLE_EQ(model_->RegionPerfCost(0, 0.0, tier), 0.0);
  }
}

TEST_F(CostModelFixture, CompressedTiersCheaperThanDram) {
  // Region 0 is compressible text: CT placements must beat DRAM's $.
  const double dram_cost = model_->RegionTcoCost(0, 0);
  EXPECT_LT(model_->RegionTcoCost(0, 2), dram_cost);  // CT-1 (DRAM-backed)
  EXPECT_LT(model_->RegionTcoCost(0, 3), dram_cost);  // CT-2 (NVMM-backed)
  // CT-2 (NVMM backing + zstd) is the cheapest placement for text.
  EXPECT_LT(model_->RegionTcoCost(0, 3), model_->RegionTcoCost(0, 1));
}

TEST_F(CostModelFixture, IncompressibleRegionGainsNothingFromCompression) {
  // Region 2 is random data (segment 2 starts at page 1024 = region 2).
  const std::uint64_t random_region = 2;
  EXPECT_EQ(space_.ProfileOfPage(random_region * kPagesPerRegion), CorpusProfile::kRandom);
  EXPECT_NEAR(model_->PredictRatio(random_region, 2), 1.0, 1e-9);
  // Its best placement is plain NVMM, not a compressed tier (§3.3: "even if
  // the page is cold, it is not beneficial ... if the page is not
  // compressible").
  EXPECT_LT(model_->RegionTcoCost(random_region, 1),
            model_->RegionTcoCost(random_region, 3) + 1e-12);
}

TEST_F(CostModelFixture, PredictRatioRespectsPoolCaps) {
  // zbud can never predict better than 0.5 (CT-1 uses zsmalloc, so build a
  // zbud tier directly).
  TieredSystem system(SpectrumConfig(64 * kMiB, 256 * kMiB));
  AddressSpace space;
  space.Allocate("nci", 2 * kMiB, CorpusProfile::kNci);
  CostModel model(system.tiers(), space, 128);
  const int c1 = system.tiers().FindByLabel("C1");  // zbud/lz4/DRAM
  ASSERT_GT(c1, 0);
  EXPECT_GE(model.PredictRatio(0, c1), 0.5);
  const int c12 = system.tiers().FindByLabel("C12");  // zsmalloc/deflate
  EXPECT_LT(model.PredictRatio(0, c12), 0.3);
}

TEST_F(CostModelFixture, ExpectedAccessesScalesWithPeriod) {
  EXPECT_DOUBLE_EQ(model_->ExpectedAccesses(2.0), 256.0);
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

PlacementInput MakeInput(int regions, double threshold) {
  PlacementInput input;
  input.hotness_threshold = threshold;
  for (int r = 0; r < regions; ++r) {
    input.regions.push_back(RegionProfile{.region = static_cast<std::uint64_t>(r),
                                          .hotness = static_cast<double>(r),
                                          .current_tier = 0});
  }
  return input;
}

TEST_F(CostModelFixture, TwoTierPolicySplitsAtThreshold) {
  TwoTierPolicy policy("HeMem*", 1);
  auto decision = policy.Decide(MakeInput(3, 1.0), *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ((*decision)[0], 1);  // hotness 0 <= 1 -> slow tier
  EXPECT_EQ((*decision)[1], 1);  // hotness 1 <= 1 -> slow tier
  EXPECT_EQ((*decision)[2], 0);  // hotness 2 > 1 -> DRAM
}

TEST_F(CostModelFixture, WaterfallAgesOneTierPerWindow) {
  WaterfallPolicy policy;
  PlacementInput input = MakeInput(3, 10.0);  // everything cold
  input.regions[0].current_tier = 0;
  input.regions[1].current_tier = 2;
  input.regions[2].current_tier = 3;  // already in the last tier
  auto decision = policy.Decide(input, *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ((*decision)[0], 1);
  EXPECT_EQ((*decision)[1], 3);
  EXPECT_EQ((*decision)[2], 3);  // stays in the last tier
}

TEST_F(CostModelFixture, WaterfallPromotesHotToDram) {
  WaterfallPolicy policy;
  PlacementInput input = MakeInput(1, 0.5);
  input.regions[0].hotness = 5.0;
  input.regions[0].current_tier = 3;
  auto decision = policy.Decide(input, *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ((*decision)[0], 0);
}

TEST_F(CostModelFixture, AnalyticalAlphaOneKeepsEverythingInDram) {
  AnalyticalPolicy policy(1.0);
  auto decision = policy.Decide(MakeInput(3, 0.0), *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  for (int choice : *decision) {
    EXPECT_EQ(choice, 0);
  }
}

TEST_F(CostModelFixture, AnalyticalAlphaZeroMaximizesSavings) {
  AnalyticalPolicy policy(0.0);
  // All regions cold: everything should land in min-TCO tiers, none in DRAM.
  PlacementInput input = MakeInput(3, 0.0);
  for (auto& region : input.regions) {
    region.hotness = 0.0;
  }
  auto decision = policy.Decide(input, *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  for (int choice : *decision) {
    EXPECT_NE(choice, 0);
  }
  EXPECT_EQ(policy.stats().solves, 1u);
}

TEST_F(CostModelFixture, AnalyticalMidAlphaRecordsBudgetStats) {
  AnalyticalPolicy policy(0.5);
  auto decision = policy.Decide(MakeInput(3, 0.0), *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  EXPECT_GT(policy.stats().last_tco_max, policy.stats().last_tco_min);
  EXPECT_GE(policy.stats().last_budget, policy.stats().last_tco_min);
  EXPECT_LE(policy.stats().last_budget, policy.stats().last_tco_max);
}

TEST_F(CostModelFixture, AnalyticalTimesEveryDecide) {
  // last_solve_ms describes the call that just returned — alpha endpoints and
  // failed solves included — and total_solve_ms is the sum of those values. A
  // stale last_solve_ms would be counted twice in `running`.
  FaultConfig timeout_config;
  timeout_config.seed = 5;
  timeout_config.solver_timeout_rate = 1.0;
  FaultInjector timeout(timeout_config);
  FaultConfig infeasible_config;
  infeasible_config.seed = 5;
  infeasible_config.solver_infeasible_rate = 1.0;
  FaultInjector infeasible(infeasible_config);

  AnalyticalPolicy policy(0.5);
  double running = 0.0;
  const auto decide = [&](double alpha, FaultInjector* fault, bool expect_ok) {
    policy.set_alpha(alpha);
    policy.set_fault_injector(fault);
    const auto decision = policy.Decide(MakeInput(3, 0.0), *model_, DecisionContext{});
    EXPECT_EQ(decision.ok(), expect_ok) << "alpha " << alpha;
    EXPECT_GE(policy.stats().last_solve_ms, 0.0);
    running += policy.stats().last_solve_ms;
    EXPECT_EQ(policy.stats().total_solve_ms, running) << "alpha " << alpha;
  };
  decide(0.5, nullptr, true);        // solved
  decide(1.0, nullptr, true);        // endpoint: all DRAM
  decide(0.5, &timeout, false);      // injected kSolverTimeout
  decide(0.0, nullptr, true);        // endpoint: cheapest tiers
  decide(0.5, &infeasible, false);   // injected kSolverInfeasible
  decide(0.5, &infeasible, false);   // two failures in a row
  decide(0.5, nullptr, true);        // solved again
  EXPECT_EQ(policy.stats().solves, 4u);  // failed solves are not counted
}

TEST_F(CostModelFixture, AnalyticalPrefersDramForHotRegions) {
  AnalyticalPolicy policy(0.5);
  PlacementInput input = MakeInput(3, 0.0);
  input.regions[0].hotness = 1000.0;  // blazing hot
  input.regions[1].hotness = 0.0;
  input.regions[2].hotness = 0.0;
  auto decision = policy.Decide(input, *model_, DecisionContext{});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ((*decision)[0], 0);
  EXPECT_NE((*decision)[1], 0);
}

// ---------------------------------------------------------------------------
// TS-Daemon end to end
// ---------------------------------------------------------------------------

TEST(TsDaemonTest, WindowLoopMovesColdDataAndRecordsHistory) {
  TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
  AddressSpace space;
  space.Allocate("hot", 2 * kMiB, CorpusProfile::kBinary);
  space.Allocate("cold", 14 * kMiB, CorpusProfile::kDickens);
  TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 16});
  ASSERT_TRUE(engine.PlaceInitial().ok());

  AnalyticalPolicy policy(0.2);
  DaemonConfig config;
  config.window_ops = 0;
  config.profile_window = kMilli;
  TsDaemon daemon(engine, &policy, config);

  // Hammer the hot segment; leave the cold one untouched.
  for (int window = 0; window < 6; ++window) {
    for (int i = 0; i < 3000; ++i) {
      engine.Access((i % 512) * kPageSize, false);
      engine.Compute(500);
    }
    ASSERT_TRUE(daemon.OnWindowEnd().ok());
  }
  ASSERT_EQ(daemon.history().size(), 6u);
  // Cold data must have left DRAM; hot region must still be there.
  EXPECT_GT(daemon.history().back().tco_savings, 0.10);
  EXPECT_EQ(engine.RegionTier(0), 0);
  EXPECT_NE(engine.RegionTier(4), 0);
  EXPECT_GT(engine.total_migrated_pages(), 0u);
  EXPECT_GT(daemon.MeanTcoSavings(), 0.0);
}

TEST(TsDaemonTest, ProfilingOnlyModeNeverMigrates) {
  TieredSystem system(StandardMixConfig(32 * kMiB, 64 * kMiB));
  AddressSpace space;
  space.Allocate("data", 8 * kMiB, CorpusProfile::kDickens);
  TieringEngine engine(space, system.tiers());
  ASSERT_TRUE(engine.PlaceInitial().ok());
  DaemonConfig config;
  config.mode = DaemonMode::kProfileOnly;
  TsDaemon daemon(engine, nullptr, config);
  for (int i = 0; i < 1000; ++i) {
    engine.Access(i * kPageSize % (8 * kMiB), false);
  }
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_EQ(engine.total_migrated_pages(), 0u);
  EXPECT_EQ(daemon.history().back().tco_savings, 0.0);
}

TEST(MigrationFilterTest, CapacityBoundRespected) {
  // A tiny NVMM medium cannot absorb every region.
  SystemConfig config;
  config.dram_bytes = 64 * kMiB;
  config.nvmm_bytes = 4 * kMiB;  // two regions worth
  config.compressed_tiers = {};
  TieredSystem system(config);
  AddressSpace space;
  space.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
  TieringEngine engine(space, system.tiers());
  ASSERT_TRUE(engine.PlaceInitial().ok());
  CostModel model(system.tiers(), space, 128);

  PlacementInput input;
  for (std::uint64_t region = 0; region < 8; ++region) {
    input.regions.push_back(RegionProfile{.region = region, .hotness = 0.0,
                                          .current_tier = 0});
  }
  PlacementDecision decision(8, 1);  // everything to NVMM
  MigrationFilter filter(FilterConfig{.capacity_headroom = 1.0});
  const FilterStats stats = filter.Apply(input, decision, model, engine, DecisionContext{});
  EXPECT_GT(stats.dropped_capacity, 0u);
  std::size_t kept = 0;
  for (int dst : decision) {
    kept += dst == 1;
  }
  EXPECT_LE(kept, 2u);
}

TEST(MigrationFilterTest, HysteresisBlocksPointlessMoves) {
  TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
  AddressSpace space;
  space.Allocate("data", 4 * kMiB, CorpusProfile::kDickens);
  TieringEngine engine(space, system.tiers());
  ASSERT_TRUE(engine.PlaceInitial().ok());
  ASSERT_TRUE(engine.MigrateRegion(0, 3).ok());
  CostModel model(system.tiers(), space, 128);

  PlacementInput input;
  input.regions.push_back(RegionProfile{.region = 0, .hotness = 0.0, .current_tier = 3});
  // CT-2 -> CT-1 for a cold region: worse TCO, no perf need.
  PlacementDecision decision = {2};
  MigrationFilter filter;
  const FilterStats stats = filter.Apply(input, decision, model, engine, DecisionContext{});
  EXPECT_EQ(stats.dropped_hysteresis, 1u);
  EXPECT_EQ(decision[0], 3);
}

}  // namespace
}  // namespace tierscape
