// Multi-active-tier zswap backend.
//
// Stock Linux supports exactly one active zswap pool; the paper's kernel
// patch (§7.1) adds multiple simultaneously-active compressed tiers, a
// backing-media parameter, per-tier statistics, and page migration between
// tiers. This class is the userspace equivalent of that patched subsystem:
// TS-Daemon talks to it the way it would talk to the patched kernel.
#ifndef SRC_ZSWAP_ZSWAP_H_
#define SRC_ZSWAP_ZSWAP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/zswap/compressed_tier.h"

namespace tierscape {

class ZswapBackend {
 public:
  // Observability is constructor-injected (DESIGN.md §4b): every tier and
  // pool added later resolves its metric handles against `obs`, so there is
  // no half-initialized window in which a set_obs call could be missed. The
  // default constructor is the one factory overload for the common
  // process-wide case. `fault` (optional) is handed to every tier for store
  // fault injection (DESIGN.md §4d).
  ZswapBackend();
  explicit ZswapBackend(Observability& obs, FaultInjector* fault = nullptr);
  ZswapBackend(const ZswapBackend&) = delete;
  ZswapBackend& operator=(const ZswapBackend&) = delete;

  Observability& obs() const { return *obs_; }
  FaultInjector* fault() const { return fault_; }

  // Registers a new active tier backed by `medium` (must outlive the backend)
  // and returns its tier id. Fails upfront — before any tier state is built —
  // on an invalid config or a duplicate label.
  StatusOr<int> AddTier(CompressedTierConfig config, Medium& medium);

  int tier_count() const { return static_cast<int>(tiers_.size()); }
  CompressedTier& tier(int tier_id) { return *tiers_.at(tier_id); }
  const CompressedTier& tier(int tier_id) const { return *tiers_.at(tier_id); }

  // Finds a tier by label ("C7", "CT-1", ...); -1 if absent. O(1): the
  // label→id index is built at AddTier time (handle-resolution-at-
  // construction spirit), not rescanned per lookup — policy code resolves
  // tiers by label on per-window hot paths.
  int FindTier(const std::string& label) const;

  struct MigrateResult {
    CompressedTier::StoreResult store;
    Nanos latency = 0;  // decompress from source + compress into destination
  };

  // Moves one entry between tiers using the naive decompress-then-recompress
  // path (§7.1). On success the source entry is invalidated. On kRejected the
  // source entry is left untouched (the destination cannot hold the data).
  StatusOr<MigrateResult> Migrate(int from_tier, ZPoolHandle handle, int to_tier);

  // Sum of real pool bytes across all tiers.
  std::size_t total_pool_bytes() const;
  // Sum of stored (original) pages across all tiers.
  std::size_t total_stored_pages() const;

 private:
  Observability* obs_;
  FaultInjector* fault_;
  std::vector<std::unique_ptr<CompressedTier>> tiers_;
  std::unordered_map<std::string, int> tier_ids_;  // label → tier id (FindTier)
};

}  // namespace tierscape

#endif  // SRC_ZSWAP_ZSWAP_H_
