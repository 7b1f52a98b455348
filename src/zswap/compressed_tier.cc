#include "src/zswap/compressed_tier.h"

#include <vector>

#include "src/common/logging.h"
#include "src/fault/fault_injector.h"

namespace tierscape {
namespace {

constexpr std::size_t kCachelineSize = 64;

}  // namespace

Status CompressedTierConfig::Validate() const {
  if (label.empty()) {
    return InvalidArgument("CompressedTierConfig: label must be non-empty");
  }
  if (max_store_ratio <= 0.0 || max_store_ratio > 1.0) {
    return InvalidArgument("CompressedTierConfig \"" + label +
                           "\": max_store_ratio must be in (0, 1], got " +
                           std::to_string(max_store_ratio));
  }
  return OkStatus();
}

CompressedTier::CompressedTier(int tier_id, CompressedTierConfig config, Medium& medium,
                               Observability& obs, FaultInjector* fault)
    : tier_id_(tier_id),
      config_(std::move(config)),
      medium_(medium),
      fault_(fault),
      compressor_(&GetCompressor(config_.algorithm)) {
  const Status valid = config_.Validate();
  TS_CHECK(valid.ok()) << valid.ToString();
  MetricsRegistry& metrics = obs.metrics;
  pool_ = CreateZPool(config_.pool_manager, medium, metrics, config_.label);
  const std::string prefix = "zswap/" + config_.label + "/";
  m_stores_ = &metrics.GetCounter(prefix + "stores");
  m_rejects_ = &metrics.GetCounter(prefix + "rejects");
  m_loads_ = &metrics.GetCounter(prefix + "loads");
  m_faults_ = &metrics.GetCounter(prefix + "faults");
  m_invalidates_ = &metrics.GetCounter(prefix + "invalidates");
  m_compressed_bytes_ = &metrics.GetCounter(prefix + "compressed_bytes");
  m_pool_bytes_ = &metrics.GetGauge(prefix + "pool_bytes");
  m_stored_pages_ = &metrics.GetGauge(prefix + "stored_pages");
}

void CompressedTier::UpdateOccupancyGauges() {
  pool_->RefreshMetrics();
  m_pool_bytes_->Set(static_cast<double>(pool_bytes()));
  m_stored_pages_->Set(static_cast<double>(stored_pages()));
}

StatusOr<CompressedTier::StoreResult> CompressedTier::Store(std::span<const std::byte> page) {
  TS_CHECK_EQ(page.size(), kPageSize);
  // Compress unclamped so the output is a pure function of (contents,
  // algorithm) — the property the compression cache memoizes — and apply the
  // zswap rejection threshold to the true size in StoreCompressed.
  std::byte scratch[2 * kPageSize];
  auto compressed = compressor_->Compress(page, scratch);
  if (!compressed.ok()) {
    ++stats_.rejects;
    m_rejects_->Add();
    return Rejected(config_.label + ": page not compressible enough");
  }
  return StoreCompressed(std::span<const std::byte>(scratch, *compressed));
}

StatusOr<CompressedTier::StoreResult> CompressedTier::StoreCompressed(
    std::span<const std::byte> compressed) {
  // Injected faults (DESIGN.md §4d): a transient pool failure surfaces as
  // kUnavailable (the migration pipeline retries it); an injected rejection is
  // indistinguishable from a genuinely incompressible page.
  if (ShouldInjectFault(fault_, FaultSite::kStoreTransient)) {
    return Unavailable(config_.label + ": transient pool store failure (injected)");
  }
  if (ShouldInjectFault(fault_, FaultSite::kStoreReject)) {
    ++stats_.rejects;
    m_rejects_->Add();
    return Rejected(config_.label + ": page not compressible enough (injected)");
  }
  // zswap's refusal of poorly compressible data (footnote 1).
  if (compressed.size() > static_cast<std::size_t>(config_.max_store_ratio * kPageSize)) {
    ++stats_.rejects;
    m_rejects_->Add();
    return Rejected(config_.label + ": page not compressible enough");
  }
  // Multi-tenant grant partition (DESIGN.md §4f): a pool already at its
  // grant behaves exactly like a full backing medium.
  if (pool_bytes() >= grant_bytes_ || grant_bytes_ - pool_bytes() < compressed.size()) {
    return OutOfMemory(config_.label + ": grant exhausted");
  }
  auto handle = pool_->Alloc(compressed.size());
  if (!handle.ok()) {
    return handle.status();
  }
  auto dst = pool_->Map(*handle);
  TS_CHECK(dst.ok());
  std::copy(compressed.begin(), compressed.end(), dst->data());
  ++stats_.stores;
  m_stores_->Add();
  m_compressed_bytes_->Add(compressed.size());
  total_compressed_bytes_ += compressed.size();
  ++total_stored_;
  UpdateOccupancyGauges();
  StoreResult result;
  result.handle = *handle;
  result.compressed_size = static_cast<std::uint32_t>(compressed.size());
  result.latency = StoreCost(compressed.size());
  return result;
}

Status CompressedTier::Load(ZPoolHandle handle, std::span<std::byte> out) {
  TS_CHECK_EQ(out.size(), kPageSize);
  auto src = pool_->Map(handle);
  if (!src.ok()) {
    return src.status();
  }
  auto size = compressor_->Decompress(*src, out);
  if (!size.ok()) {
    return size.status();
  }
  ++stats_.loads;
  m_loads_->Add();
  return OkStatus();
}

Status CompressedTier::Invalidate(ZPoolHandle handle) {
  ++stats_.invalidates;
  m_invalidates_->Add();
  const Status freed = pool_->Free(handle);
  UpdateOccupancyGauges();
  return freed;
}

Nanos CompressedTier::LoadCost(std::size_t compressed_size) const {
  // Pool lookup + per-cacheline read of the compressed bytes from the backing
  // medium + decompression. Compressibility of the data thus directly lowers
  // the access latency, as the paper notes in §3.3.
  const std::size_t lines = (compressed_size + kCachelineSize - 1) / kCachelineSize;
  return pool_->map_overhead_ns() + lines * medium_.load_latency_ns() +
         compressor_->decompress_page_ns();
}

Nanos CompressedTier::NominalLoadCost() const {
  // Until data is observed, assume half-page compressed size.
  const std::size_t typical =
      total_stored_ > 0 ? total_compressed_bytes_ / total_stored_ : kPageSize / 2;
  return LoadCost(typical);
}

Nanos CompressedTier::StoreCost(std::size_t compressed_size) const {
  const std::size_t lines = (compressed_size + kCachelineSize - 1) / kCachelineSize;
  return pool_->map_overhead_ns() + lines * medium_.load_latency_ns() +
         compressor_->compress_page_ns();
}

double CompressedTier::EffectiveRatio() const {
  const std::size_t stored = stored_pages() * kPageSize;
  if (stored == 0) {
    return 1.0;
  }
  return static_cast<double>(pool_bytes()) / static_cast<double>(stored);
}

}  // namespace tierscape
