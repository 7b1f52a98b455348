#include "src/zpool/zpool.h"

#include <string>
#include <utility>

#include "src/zpool/z3fold.h"
#include "src/zpool/zbud.h"
#include "src/zpool/zsmalloc.h"

namespace tierscape {
namespace {

// Forwarding decorator that exports pool-manager activity and occupancy
// without touching the three manager implementations. Counter handles are
// resolved once here; the forwarded calls stay allocation-free.
class InstrumentedZPool : public ZPool {
 public:
  InstrumentedZPool(std::unique_ptr<ZPool> inner, MetricsRegistry& metrics,
                    std::string_view scope)
      : inner_(std::move(inner)),
        allocs_(metrics.GetCounter("zpool/" + std::string(scope) + "/allocs")),
        failed_allocs_(metrics.GetCounter("zpool/" + std::string(scope) + "/failed_allocs")),
        frees_(metrics.GetCounter("zpool/" + std::string(scope) + "/frees")),
        maps_(metrics.GetCounter("zpool/" + std::string(scope) + "/maps")),
        pool_pages_(metrics.GetGauge("zpool/" + std::string(scope) + "/pool_pages")),
        stored_bytes_(metrics.GetGauge("zpool/" + std::string(scope) + "/stored_bytes")),
        objects_(metrics.GetGauge("zpool/" + std::string(scope) + "/objects")),
        frag_pct_(metrics.GetGauge("zpool/" + std::string(scope) + "/frag_pct")) {}

  PoolManager manager() const override { return inner_->manager(); }

  StatusOr<ZPoolHandle> Alloc(std::size_t size) override {
    auto handle = inner_->Alloc(size);
    handle.ok() ? allocs_.Add() : failed_allocs_.Add();
    return handle;
  }

  Status Free(ZPoolHandle handle) override {
    const Status status = inner_->Free(handle);
    if (status.ok()) {
      frees_.Add();
    }
    return status;
  }

  StatusOr<std::span<std::byte>> Map(ZPoolHandle handle) override {
    maps_.Add();
    return inner_->Map(handle);
  }

  // Uncounted by design: Peek is the concurrent read of the migration
  // fan-out's phase-1 workers, and this decorator's counters are plain
  // (submitting thread only).
  StatusOr<std::span<const std::byte>> Peek(ZPoolHandle handle) const override {
    return inner_->Peek(handle);
  }

  std::size_t pool_pages() const override { return inner_->pool_pages(); }
  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }
  std::size_t object_count() const override { return inner_->object_count(); }
  Nanos map_overhead_ns() const override { return inner_->map_overhead_ns(); }

  void RefreshMetrics() override {
    const std::size_t pages = inner_->pool_pages();
    const std::size_t pool = pages * kPageSize;
    const std::size_t stored = inner_->stored_bytes();
    pool_pages_.Set(static_cast<double>(pages));
    stored_bytes_.Set(static_cast<double>(stored));
    objects_.Set(static_cast<double>(inner_->object_count()));
    // Internal fragmentation: pool bytes not covered by stored objects.
    frag_pct_.Set(pool == 0 ? 0.0
                            : 100.0 * (1.0 - static_cast<double>(stored) /
                                                 static_cast<double>(pool)));
  }

 private:

  std::unique_ptr<ZPool> inner_;
  Counter& allocs_;
  Counter& failed_allocs_;
  Counter& frees_;
  Counter& maps_;
  Gauge& pool_pages_;
  Gauge& stored_bytes_;
  Gauge& objects_;
  Gauge& frag_pct_;
};

}  // namespace

std::string_view PoolManagerName(PoolManager manager) {
  switch (manager) {
    case PoolManager::kZbud:
      return "zbud";
    case PoolManager::kZ3fold:
      return "z3fold";
    case PoolManager::kZsmalloc:
      return "zsmalloc";
  }
  return "?";
}

StatusOr<PoolManager> PoolManagerFromName(std::string_view name) {
  for (int i = 0; i < kPoolManagerCount; ++i) {
    const auto manager = static_cast<PoolManager>(i);
    if (PoolManagerName(manager) == name) {
      return manager;
    }
  }
  return NotFound("unknown pool manager: " + std::string(name));
}

std::unique_ptr<ZPool> CreateZPool(PoolManager manager, Medium& medium) {
  switch (manager) {
    case PoolManager::kZbud:
      return std::make_unique<ZbudPool>(medium);
    case PoolManager::kZ3fold:
      return std::make_unique<Z3foldPool>(medium);
    case PoolManager::kZsmalloc:
      return std::make_unique<ZsmallocPool>(medium);
  }
  return nullptr;
}

std::unique_ptr<ZPool> CreateZPool(PoolManager manager, Medium& medium, MetricsRegistry& metrics,
                                   std::string_view scope) {
  std::unique_ptr<ZPool> pool = CreateZPool(manager, medium);
  if (pool == nullptr) {
    return nullptr;
  }
  const std::string_view effective_scope = scope.empty() ? pool->name() : scope;
  return std::make_unique<InstrumentedZPool>(std::move(pool), metrics, effective_scope);
}

}  // namespace tierscape
