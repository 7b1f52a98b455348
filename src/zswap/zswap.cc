#include "src/zswap/zswap.h"

#include "src/common/logging.h"

namespace tierscape {

ZswapBackend::ZswapBackend() : ZswapBackend(Observability::Default()) {}

ZswapBackend::ZswapBackend(Observability& obs, FaultInjector* fault)
    : obs_(&obs), fault_(fault) {}

StatusOr<int> ZswapBackend::AddTier(CompressedTierConfig config, Medium& medium) {
  TS_RETURN_IF_ERROR(config.Validate());
  if (FindTier(config.label) != -1) {
    return InvalidArgument("zswap: duplicate tier label \"" + config.label + "\"");
  }
  const int tier_id = static_cast<int>(tiers_.size());
  tiers_.push_back(
      std::make_unique<CompressedTier>(tier_id, std::move(config), medium, *obs_, fault_));
  tier_ids_.emplace(tiers_.back()->label(), tier_id);
  return tier_id;
}

int ZswapBackend::FindTier(const std::string& label) const {
  const auto it = tier_ids_.find(label);
  return it == tier_ids_.end() ? -1 : it->second;
}

StatusOr<ZswapBackend::MigrateResult> ZswapBackend::Migrate(int from_tier, ZPoolHandle handle,
                                                            int to_tier) {
  if (from_tier < 0 || from_tier >= tier_count() || to_tier < 0 || to_tier >= tier_count()) {
    return InvalidArgument("zswap: bad tier id");
  }
  if (from_tier == to_tier) {
    return InvalidArgument("zswap: migration to the same tier");
  }
  CompressedTier& src = *tiers_[from_tier];
  CompressedTier& dst = *tiers_[to_tier];

  std::byte page[kPageSize];
  TS_RETURN_IF_ERROR(src.Load(handle, page));
  auto stored = dst.Store(page);
  if (!stored.ok()) {
    return stored.status();  // kRejected or kOutOfMemory: source left intact
  }
  TS_RETURN_IF_ERROR(src.Invalidate(handle));
  MigrateResult result;
  result.store = *stored;
  result.latency = src.NominalLoadCost() + stored->latency;
  return result;
}

std::size_t ZswapBackend::total_pool_bytes() const {
  std::size_t total = 0;
  for (const auto& tier : tiers_) {
    total += tier->pool_bytes();
  }
  return total;
}

std::size_t ZswapBackend::total_stored_pages() const {
  std::size_t total = 0;
  for (const auto& tier : tiers_) {
    total += tier->stored_pages();
  }
  return total;
}

}  // namespace tierscape
