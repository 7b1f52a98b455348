// Tests for the workload generators and the experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "src/core/analytical.h"
#include "src/core/waterfall.h"
#include "src/fault/fault_injector.h"
#include "src/obs/export.h"
#include "src/workloads/driver.h"
#include "src/workloads/graph.h"
#include "src/workloads/graphsage.h"
#include "src/workloads/kv_store.h"
#include "src/workloads/masim.h"
#include "src/workloads/xsbench.h"

namespace tierscape {
namespace {

// Threads of this process, as the kernel lists them.
std::size_t ProcessThreads() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

TEST(RmatGraphTest, EdgeCountAndDegreeSkew) {
  RmatConfig config;
  config.vertices = 1 << 12;
  config.edges_per_vertex = 8;
  RmatGraph graph(config);
  EXPECT_EQ(graph.vertices(), config.vertices);
  EXPECT_EQ(graph.edges(), config.vertices * config.edges_per_vertex);

  // Power-law skew: the top 1% of vertices should hold far more than 1% of
  // the edges.
  std::vector<std::uint64_t> degrees;
  for (std::uint64_t v = 0; v < graph.vertices(); ++v) {
    auto [begin, end] = graph.Neighbors(v);
    degrees.push_back(static_cast<std::uint64_t>(end - begin));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < degrees.size() / 100; ++i) {
    top += degrees[i];
  }
  EXPECT_GT(top, graph.edges() / 10);
}

TEST(RmatGraphTest, Deterministic) {
  RmatConfig config;
  config.vertices = 1 << 10;
  RmatGraph a(config);
  RmatGraph b(config);
  for (std::uint64_t v = 0; v < a.vertices(); v += 37) {
    EXPECT_EQ(a.EdgeOffset(v), b.EdgeOffset(v));
  }
}

template <typename WorkloadT, typename ConfigT>
void SmokeRunWorkload(ConfigT config) {
  WorkloadT workload(config);
  TieredSystem system(StandardMixConfig(512 * kMiB, kGiB));
  ExperimentConfig experiment;
  experiment.ops = 2000;
  experiment.target_windows = 4;
  const ExperimentResult result = RunExperiment(system, workload, nullptr, experiment);
  EXPECT_EQ(result.op_latency_ns.count(), 2000u);
  EXPECT_GT(result.throughput_mops, 0.0);
  // No policy: everything stays in DRAM.
  EXPECT_DOUBLE_EQ(result.slowdown, 1.0);
  EXPECT_EQ(result.total_faults, 0u);
}

TEST(WorkloadSmokeTest, Kv) {
  KvConfig config = MemcachedYcsbConfig();
  config.items = 4096;
  SmokeRunWorkload<KvWorkload>(config);
}

TEST(WorkloadSmokeTest, KvMemtier) {
  KvConfig config = MemcachedMemtier1kConfig();
  config.items = 4096;
  SmokeRunWorkload<KvWorkload>(config);
}

TEST(WorkloadSmokeTest, PageRank) {
  GraphWorkloadConfig config;
  config.rmat.vertices = 1 << 12;
  SmokeRunWorkload<PageRankWorkload>(config);
}

TEST(WorkloadSmokeTest, Bfs) {
  GraphWorkloadConfig config;
  config.rmat.vertices = 1 << 12;
  SmokeRunWorkload<BfsWorkload>(config);
}

TEST(WorkloadSmokeTest, XsBench) {
  XsBenchConfig config;
  config.gridpoints = 32 * 1024;
  config.nuclide_gridpoints = 1024;
  SmokeRunWorkload<XsBenchWorkload>(config);
}

TEST(WorkloadSmokeTest, GraphSage) {
  GraphSageConfig config;
  config.nodes = 16 * 1024;
  SmokeRunWorkload<GraphSageWorkload>(config);
}

TEST(WorkloadSmokeTest, Masim) {
  SmokeRunWorkload<MasimWorkload>(DefaultMasimConfig(16 * kMiB));
}

TEST(KvWorkloadTest, ZipfianKeysSkewRegionHotness) {
  KvConfig config = MemcachedYcsbConfig();
  config.items = 8192;
  KvWorkload workload(config);
  TieredSystem system(StandardMixConfig(128 * kMiB, 256 * kMiB));
  AddressSpace space;
  workload.Reserve(space);
  TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 8});
  ASSERT_TRUE(engine.PlaceInitial().ok());
  workload.Populate(engine);
  engine.sampler().DrainWindow();
  for (int i = 0; i < 20000; ++i) {
    workload.Op(engine);
  }
  const auto window = engine.sampler().DrainWindow();
  ASSERT_FALSE(window.empty());
  std::uint32_t max_count = 0;
  std::uint64_t total = 0;
  for (const auto& [region, count] : window) {
    max_count = std::max(max_count, count);
    total += count;
  }
  // Zipfian traffic: the hottest region clearly exceeds the mean (the skew
  // is diluted by 2 MiB aggregation but must survive it).
  EXPECT_GT(max_count, 3 * total / (2 * window.size()));
}

TEST(DriverTest, PolicyRunProducesWindowsAndSavings) {
  TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
  MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
  AnalyticalPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 20000;
  config.target_windows = 10;
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);
  EXPECT_EQ(result.windows.size(), 10u);
  EXPECT_GT(result.mean_tco_savings, 0.05);
  EXPECT_GT(result.slowdown, 1.0);
  EXPECT_GT(result.migrated_pages, 0u);
  EXPECT_EQ(result.policy, policy.name());
}

TEST(DriverTest, DeterministicAcrossRuns) {
  auto run = [] {
    TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
    MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
    AnalyticalPolicy policy(0.3);
    ExperimentConfig config;
    config.ops = 10000;
    config.target_windows = 5;
    return RunExperiment(system, workload, &policy, config);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_DOUBLE_EQ(a.slowdown, b.slowdown);
  EXPECT_DOUBLE_EQ(a.mean_tco_savings, b.mean_tco_savings);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.migrated_pages, b.migrated_pages);
}

TEST(DriverTest, DeterministicAcrossThreadsAndCache) {
  // Push threads and the compression cache are wall-clock-only knobs: every
  // virtual-time observable must be byte-identical across all combinations,
  // the default host-sized push pool included. Each run records into its own
  // Observability; the non-wall metrics export (per-tier loads and pool maps
  // among them) and the virtual-time trace stream are compared byte-for-byte
  // too — the observability stack must not leak thread count or cache
  // behavior. The same contract holds under fault injection (DESIGN.md §4d):
  // the seeded injector and the degradation ladder (retries, fallback plans,
  // partial placement) are pure functions of the virtual execution, so the
  // faulted configuration must be just as byte-stable. Two legs: AM-TCO on
  // masim, and Waterfall on memcached-ycsb, which every window demotes CT-1
  // to CT-2 and promotes compressed regions back to DRAM — both directions of
  // the push threads' decompression.
  enum class Leg { kMasimAnalytical, kKvWaterfall };
  struct RunOutput {
    ExperimentResult result;
    std::string metrics_jsonl;  // wall/ metrics excluded
    std::string trace_jsonl;
    std::uint64_t promotion_loads = 0;  // compressed-tier loads not serving a fault
  };
  auto run = [](Leg leg, const EngineConfig& engine, const FaultConfig& fault) {
    Observability obs;
    obs.trace.SetEnabled(true);
    ExperimentConfig config;
    config.engine = engine;
    config.engine.check_tier_counts = true;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<PlacementPolicy> policy;
    SystemConfig system_config;
    if (leg == Leg::kMasimAnalytical) {
      system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
      workload = std::make_unique<MasimWorkload>(DefaultMasimConfig(32 * kMiB));
      policy = std::make_unique<AnalyticalPolicy>(0.3);
      config.ops = 10000;
      config.target_windows = 5;
    } else {
      KvConfig kv = MemcachedYcsbConfig();
      kv.items = 8192;
      workload = std::make_unique<KvWorkload>(kv);
      AddressSpace probe;
      KvWorkload(kv).Reserve(probe);
      system_config = StandardMixConfig(probe.total_bytes() + probe.total_bytes() / 2,
                                        3 * probe.total_bytes());
      policy = std::make_unique<WaterfallPolicy>();
      config.ops = 12000;
      config.daemon.window_ops = 1500;
      // The figure grids' settings for threshold policies (no §6.7 filter).
      config.daemon.filter.enable_hysteresis = false;
      config.daemon.filter.demotion_benefit_factor = 1e18;
      config.daemon.filter.pressure_fault_limit = ~std::uint64_t{0};
    }
    system_config.obs = &obs;
    system_config.fault = fault;
    TieredSystem system(system_config);
    RunOutput output;
    output.result = RunExperiment(system, *workload, policy.get(), config);
    output.metrics_jsonl = SnapshotToJsonl(obs.metrics.Snapshot(), WallMetrics::kExclude);
    output.trace_jsonl = obs.trace.ToJsonl();
    for (const char* label : {"CT-1", "CT-2"}) {
      // Every pool map is a store, a fault's load, or a promotion's load.
      const std::string tier(label);
      output.promotion_loads += obs.metrics.GetCounter("zpool/" + tier + "/maps").value() -
                                obs.metrics.GetCounter("zswap/" + tier + "/stores").value() -
                                obs.metrics.GetCounter("zswap/" + tier + "/faults").value();
    }
    return output;
  };
  auto engine_config = [](int threads, bool cache) {
    EngineConfig config;
    config.migrate_threads = threads;
    config.compression_cache = cache;
    return config;
  };
  const std::pair<std::string, EngineConfig> others[] = {
      {"threads=1 cache=1", engine_config(1, true)},
      {"threads=4 cache=0", engine_config(4, false)},
      {"threads=4 cache=1", engine_config(4, true)},
      {"threads=8 cache=0", engine_config(8, false)},
      {"threads=8 cache=1", engine_config(8, true)},
      {"default (threads=" + std::to_string(EngineConfig{}.migrate_threads) + " cache=1)",
       EngineConfig{}},
  };
  for (const Leg leg : {Leg::kMasimAnalytical, Leg::kKvWaterfall}) {
    SCOPED_TRACE(leg == Leg::kMasimAnalytical ? "masim x AM-TCO" : "memcached-ycsb x Waterfall");
    for (const FaultConfig& fault : {FaultConfig{}, FaultConfig::Uniform(971, 0.05)}) {
      const RunOutput base = run(leg, engine_config(1, false), fault);
      SCOPED_TRACE(fault.enabled() ? "faulted" : "fault-free");
      EXPECT_GT(base.metrics_jsonl.size(), 0u);
      EXPECT_GT(base.trace_jsonl.size(), 0u);
      if (fault.enabled()) {
        EXPECT_GT(base.result.injected_faults, 0u);
      } else {
        EXPECT_EQ(base.result.injected_faults, 0u);
      }
      if (leg == Leg::kKvWaterfall) {
        EXPECT_GT(base.promotion_loads, 0u);
      }
      for (const auto& [name, engine] : others) {
        const RunOutput other = run(leg, engine, fault);
        SCOPED_TRACE(name);
        EXPECT_DOUBLE_EQ(base.result.slowdown, other.result.slowdown);
        EXPECT_DOUBLE_EQ(base.result.mean_tco_savings, other.result.mean_tco_savings);
        EXPECT_EQ(base.result.total_faults, other.result.total_faults);
        EXPECT_EQ(base.result.migrated_pages, other.result.migrated_pages);
        EXPECT_EQ(base.result.degraded_windows, other.result.degraded_windows);
        EXPECT_EQ(base.result.unrealized_pages, other.result.unrealized_pages);
        EXPECT_EQ(base.result.migrate_retries, other.result.migrate_retries);
        EXPECT_EQ(base.result.injected_faults, other.result.injected_faults);
        ASSERT_EQ(base.result.windows.size(), other.result.windows.size());
        for (std::size_t w = 0; w < base.result.windows.size(); ++w) {
          EXPECT_EQ(base.result.windows[w].actual_pages, other.result.windows[w].actual_pages);
          EXPECT_EQ(base.result.windows[w].faults, other.result.windows[w].faults);
          EXPECT_EQ(base.result.windows[w].migrated_pages,
                    other.result.windows[w].migrated_pages);
          EXPECT_DOUBLE_EQ(base.result.windows[w].tco, other.result.windows[w].tco);
          EXPECT_EQ(base.result.windows[w].degraded, other.result.windows[w].degraded);
          EXPECT_EQ(base.result.windows[w].solver_fallback,
                    other.result.windows[w].solver_fallback);
        }
        EXPECT_EQ(base.metrics_jsonl, other.metrics_jsonl);
        EXPECT_EQ(base.trace_jsonl, other.trace_jsonl);
      }
    }
  }
}

// AM-TCO that also records the most threads the process had at any window
// boundary — after the previous boundary's migrations and this one's ratio
// prewarm, while the engine and its push pool are alive.
class ThreadCountingPolicy : public AnalyticalPolicy {
 public:
  using AnalyticalPolicy::AnalyticalPolicy;
  StatusOr<PlacementDecision> Decide(const PlacementInput& input, const CostModel& model,
                                     const DecisionContext& ctx) override {
    max_threads_ = std::max(max_threads_, ProcessThreads());
    ++decides_;
    return AnalyticalPolicy::Decide(input, model, ctx);
  }
  std::size_t max_threads() const { return max_threads_; }
  int decides() const { return decides_; }

 private:
  std::size_t max_threads_ = 0;
  int decides_ = 0;
};

TEST(DriverTest, AmBetweenByteTiersCreatesNoThread) {
  // kv-am-fine-windows' shape: AM-TCO on memcached-ycsb over the standard
  // mix in 7,500-op windows moves regions between byte tiers only, so no
  // window boundary has codec work for the push pool and the process must
  // stay as single-threaded as it started.
  KvConfig kv = MemcachedYcsbConfig();
  kv.items = 8192;
  KvWorkload workload(kv);
  AddressSpace probe;
  KvWorkload(kv).Reserve(probe);
  Observability obs;
  SystemConfig system_config =
      StandardMixConfig(probe.total_bytes() + probe.total_bytes() / 2, 3 * probe.total_bytes());
  system_config.obs = &obs;
  TieredSystem system(system_config);
  ThreadCountingPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 75000;
  config.daemon.window_ops = 7500;
  config.engine.migrate_threads = 4;  // a 4-CPU host's default
  const std::size_t before = ProcessThreads();
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);
  EXPECT_GE(policy.decides(), 5);
  EXPECT_EQ(policy.max_threads(), before);
  EXPECT_GT(result.migrated_pages, 0u);
  for (const char* counter : {"zswap/CT-1/stores", "zswap/CT-2/stores"}) {
    EXPECT_EQ(obs.metrics.GetCounter(counter).value(), 0u) << counter;
  }
}

}  // namespace
}  // namespace tierscape
