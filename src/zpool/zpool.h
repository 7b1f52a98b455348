// Pool manager interface for compressed-object storage, mirroring the Linux
// zpool API that zswap allocates through (§2 of the paper).
//
// Three managers are implemented, with the same space/overhead trade-offs as
// their kernel namesakes:
//  * zbud     — at most two objects per pool page (savings capped at 50%),
//               trivially fast management.
//  * z3fold   — at most three objects per pool page (savings capped at ~66%).
//  * zsmalloc — size-class slab packing, densest storage, highest management
//               overhead.
//
// Pool pages are allocated from the backing Medium's buddy allocator, so pool
// growth/shrink dynamics and per-medium capacity pressure are real.
#ifndef SRC_ZPOOL_ZPOOL_H_
#define SRC_ZPOOL_ZPOOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/mem/medium.h"
#include "src/obs/metrics.h"

namespace tierscape {

enum class PoolManager { kZbud = 0, kZ3fold, kZsmalloc };

inline constexpr int kPoolManagerCount = 3;

std::string_view PoolManagerName(PoolManager manager);
StatusOr<PoolManager> PoolManagerFromName(std::string_view name);

// Opaque stable object handle.
using ZPoolHandle = std::uint64_t;

class ZPool {
 public:
  virtual ~ZPool() = default;

  virtual PoolManager manager() const = 0;
  std::string_view name() const { return PoolManagerName(manager()); }

  // Reserves `size` bytes and returns a handle. Fails with kOutOfMemory when
  // the backing medium is exhausted, or kRejected when the object cannot be
  // stored by this manager (e.g. larger than a pool page).
  virtual StatusOr<ZPoolHandle> Alloc(std::size_t size) = 0;

  virtual Status Free(ZPoolHandle handle) = 0;

  // Returns the object's storage. The span stays valid until Free.
  virtual StatusOr<std::span<std::byte>> Map(ZPoolHandle handle) = 0;

  // Read-only view of the object's storage. Identical lookup to Map — every
  // manager's Map is logically const — but uncounted on instrumented pools:
  // the migration fan-out's phase-1 workers peek concurrently while no pool
  // mutates, and the decorator's plain counters may only move on the
  // submitting thread. The span stays valid until Free.
  virtual StatusOr<std::span<const std::byte>> Peek(ZPoolHandle handle) const {
    auto span = const_cast<ZPool*>(this)->Map(handle);
    if (!span.ok()) {
      return span.status();
    }
    return StatusOr<std::span<const std::byte>>(std::span<const std::byte>(*span));
  }

  // --- statistics (used for TCO accounting and the Fig. 2 characterization) --
  // Pool pages currently held from the backing medium.
  virtual std::size_t pool_pages() const = 0;
  virtual std::size_t stored_bytes() const = 0;
  virtual std::size_t object_count() const = 0;
  std::size_t pool_bytes() const { return pool_pages() * kPageSize; }

  // Virtual-time management overhead added to every map (lookup) operation.
  // zsmalloc's dense packing costs the most (§2).
  virtual Nanos map_overhead_ns() const = 0;

  // Re-publishes occupancy gauges on instrumented pools; no-op otherwise.
  // Alloc/Free deliberately do not refresh gauges themselves — the owning
  // CompressedTier calls this once per store/invalidate, keeping the per-page
  // hot path free of redundant gauge updates (every pool mutation in the
  // system flows through a CompressedTier operation).
  virtual void RefreshMetrics() {}
};

// Creates an uninstrumented pool drawing pages from `medium`. The medium must
// outlive the pool.
std::unique_ptr<ZPool> CreateZPool(PoolManager manager, Medium& medium);

// Instrumented overload: the pool is wrapped in a decorator exporting
// "zpool/<scope>/..." counters (allocs, frees, maps, failed allocs) and
// occupancy/fragmentation gauges, with handles resolved here, once
// (DESIGN.md §4b); `scope` is the owning tier's label (the pool-manager name
// when empty).
std::unique_ptr<ZPool> CreateZPool(PoolManager manager, Medium& medium, MetricsRegistry& metrics,
                                   std::string_view scope = {});

}  // namespace tierscape

#endif  // SRC_ZPOOL_ZPOOL_H_
