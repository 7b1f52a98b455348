// Shared factories for the figure-reproduction harnesses: workload presets
// at simulation scale, the policy line-up of §8.1, and result-table helpers.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/core/analytical.h"
#include "src/core/baselines.h"
#include "src/core/tier_specs.h"
#include "src/core/waterfall.h"
#include "src/workloads/driver.h"
#include "src/workloads/graph.h"
#include "src/workloads/graphsage.h"
#include "src/workloads/kv_store.h"
#include "src/workloads/masim.h"
#include "src/workloads/xsbench.h"

namespace tierscape {
namespace bench {

// Builds a Table-2 workload by name at simulation scale. Scale multiplies the
// default footprint (1.0 ~ 50-100 MiB simulated RSS).
inline std::unique_ptr<Workload> MakeWorkload(const std::string& name, double scale = 1.0) {
  if (name == "memcached-ycsb") {
    KvConfig config = MemcachedYcsbConfig();
    config.items = static_cast<std::uint64_t>(config.items * scale);
    return std::make_unique<KvWorkload>(config);
  }
  if (name == "memcached-memtier-1k") {
    KvConfig config = MemcachedMemtier1kConfig();
    config.items = static_cast<std::uint64_t>(config.items * scale);
    return std::make_unique<KvWorkload>(config);
  }
  if (name == "memcached-memtier-4k") {
    KvConfig config = MemcachedMemtier4kConfig();
    config.items = static_cast<std::uint64_t>(config.items * scale / 2.0);
    return std::make_unique<KvWorkload>(config);
  }
  if (name == "redis-ycsb") {
    KvConfig config = RedisYcsbConfig();
    config.items = static_cast<std::uint64_t>(config.items * scale);
    return std::make_unique<KvWorkload>(config);
  }
  if (name == "bfs" || name == "pagerank") {
    GraphWorkloadConfig config;
    config.rmat.vertices = static_cast<std::uint64_t>((1 << 18) * scale);
    if (name == "bfs") {
      return std::make_unique<BfsWorkload>(config);
    }
    return std::make_unique<PageRankWorkload>(config);
  }
  if (name == "xsbench") {
    XsBenchConfig config;
    config.gridpoints = static_cast<std::uint64_t>(config.gridpoints * scale);
    return std::make_unique<XsBenchWorkload>(config);
  }
  if (name == "graphsage") {
    GraphSageConfig config;
    config.nodes = static_cast<std::uint64_t>(config.nodes * scale);
    return std::make_unique<GraphSageWorkload>(config);
  }
  if (name == "masim") {
    return std::make_unique<MasimWorkload>(
        DefaultMasimConfig(static_cast<std::size_t>(96 * kMiB * scale)));
  }
  if (name == "masim-flash") {
    // masim with a flash crowd (ROADMAP item 3; §4h bench): the cold 60% of
    // the footprint takes over the access mix a quarter of the way into a
    // full-scale fig11 run. Smoke runs cap ops below the trigger, so the
    // crowd never arrives there — the cells still run and emit records.
    MasimConfig config = DefaultMasimConfig(static_cast<std::size_t>(96 * kMiB * scale));
    config.flash_crowd_at_op = 30'000;
    config.flash_crowd_region = 2;  // masim/cold
    config.flash_crowd_weight = 300.0;
    return std::make_unique<MasimWorkload>(config);
  }
  return nullptr;
}

// Estimated simulated footprint, used to size the media.
inline std::size_t WorkloadFootprint(const std::string& name, double scale = 1.0) {
  AddressSpace probe;
  auto workload = MakeWorkload(name, scale);
  workload->Reserve(probe);
  return probe.total_bytes();
}

// One policy column of the evaluation: a label plus a factory (fresh policy
// per run) and the tier label the two-tier baselines demote to.
struct PolicySpec {
  std::string label{};
  // Slow-tier label for two-tier policies; empty for WF/AM.
  std::string slow_tier_label{};
  // alpha for the analytical model; <0 for non-AM policies.
  double alpha = -1.0;
  bool waterfall = false;
  // All-DRAM reference column: the cell runs with a null policy (static
  // placement, everything in DRAM) for normalization rows.
  bool dram_only = false;
};

inline PolicySpec HememSpec() { return {.label = "HeMem*", .slow_tier_label = "NVMM"}; }
inline PolicySpec GswapSpec() { return {.label = "GSwap*", .slow_tier_label = "CT-1"}; }
inline PolicySpec TmoSpec() { return {.label = "TMO*", .slow_tier_label = "CT-2"}; }
inline PolicySpec WaterfallSpec() { return {.label = "Waterfall", .waterfall = true}; }
inline PolicySpec AmSpec(const std::string& label, double alpha) {
  return {.label = label, .alpha = alpha};
}
// All-DRAM reference column (null policy); "DramOnly" avoids colliding with
// the DramSpec(bytes) medium factory in src/mem/medium.h.
inline PolicySpec DramOnlySpec(const std::string& label = "DRAM") {
  return {.label = label, .dram_only = true};
}

// Instantiates the policy against a concrete system (tier indices differ per
// assembly). Returns null if the required slow tier is absent.
inline std::unique_ptr<PlacementPolicy> MakePolicy(const PolicySpec& spec,
                                                   TieredSystem& system) {
  if (spec.waterfall) {
    return std::make_unique<WaterfallPolicy>();
  }
  if (spec.alpha >= 0.0) {
    return std::make_unique<AnalyticalPolicy>(spec.alpha);
  }
  const int slow = system.tiers().FindByLabel(spec.slow_tier_label);
  if (slow < 0) {
    return nullptr;
  }
  return std::make_unique<TwoTierPolicy>(spec.label, slow);
}

}  // namespace bench
}  // namespace tierscape

#endif  // BENCH_BENCH_COMMON_H_
