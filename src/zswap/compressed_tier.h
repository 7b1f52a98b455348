// A single compressed memory tier: compression algorithm x pool manager x
// backing medium (§4 of the paper). Pages stored here are really compressed
// and really placed in the pool on the backing medium, so compression ratios,
// fragmentation, and capacity pressure are measured rather than assumed.
//
// Virtual-time cost model (per 4 KiB page):
//   store = compress(algorithm) + pool insert
//   load  = pool lookup overhead + read of the compressed bytes from the
//           backing medium (per-cacheline) + decompress(algorithm)
// which reproduces the paper's observation (§3.3) that first-access latency
// is set by algorithm + pool manager + medium + actual data compressibility.
#ifndef SRC_ZSWAP_COMPRESSED_TIER_H_
#define SRC_ZSWAP_COMPRESSED_TIER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/compress/compressor.h"
#include "src/mem/medium.h"
#include "src/obs/observability.h"
#include "src/zpool/zpool.h"

namespace tierscape {

class FaultInjector;

struct CompressedTierConfig {
  std::string label;  // e.g. "C7", "CT-1"
  Algorithm algorithm = Algorithm::kLzo;
  PoolManager pool_manager = PoolManager::kZsmalloc;
  // Pages whose compressed size exceeds this fraction of the page are
  // rejected, mirroring zswap's refusal of incompressible data (footnote 1).
  double max_store_ratio = 0.9;

  // Rejects nonsensical knobs (empty label, ratio outside (0, 1]) before any
  // tier state is built; ZswapBackend::AddTier calls this upfront.
  Status Validate() const;
};

class CompressedTier {
 public:
  struct StoreResult {
    ZPoolHandle handle = 0;
    std::uint32_t compressed_size = 0;
    Nanos latency = 0;
  };

  struct Stats {
    std::uint64_t stores = 0;
    std::uint64_t rejects = 0;
    std::uint64_t loads = 0;       // decompressions (faults + migrations)
    std::uint64_t faults = 0;      // demand faults only (updated by callers)
    std::uint64_t invalidates = 0;
  };

  // `obs` scopes the tier's "zswap/<label>/..." metrics and its pool's
  // "zpool/<label>/..." metrics; handles resolve here, once (DESIGN.md §4b).
  // `config` must Validate() — AddTier checks upfront, this TS_CHECKs as a
  // backstop. `fault`, when set, can inject store rejections and transient
  // store failures (DESIGN.md §4d).
  CompressedTier(int tier_id, CompressedTierConfig config, Medium& medium, Observability& obs,
                 FaultInjector* fault = nullptr);

  int tier_id() const { return tier_id_; }
  const std::string& label() const { return config_.label; }
  const CompressedTierConfig& config() const { return config_; }
  const Compressor& compressor() const { return *compressor_; }
  ZPool& pool() { return *pool_; }
  const ZPool& pool() const { return *pool_; }
  Medium& medium() { return medium_; }
  const Medium& medium() const { return medium_; }

  // Compresses `page` (must be kPageSize) and stores it. Returns kRejected if
  // the data is not compressible enough, kOutOfMemory if the medium is full,
  // kUnavailable on an injected transient store failure (retry may succeed).
  StatusOr<StoreResult> Store(std::span<const std::byte> page);

  // Stores a page that was already compressed with this tier's algorithm —
  // the compression-cache fast path of the migration pipeline. `compressed`
  // must be exactly what `compressor().Compress` produces for the page's
  // contents; rejection, statistics, pool placement, and the charged
  // virtual-time cost are then identical to Store, only the real compression
  // work is skipped.
  StatusOr<StoreResult> StoreCompressed(std::span<const std::byte> compressed);

  // Decompresses the entry into `out` (must be kPageSize). Does not free.
  Status Load(ZPoolHandle handle, std::span<std::byte> out);

  // Drops a stored entry.
  Status Invalidate(ZPoolHandle handle);

  // Read-only view of a stored entry's compressed bytes — const and, on
  // instrumented pools, uncounted. The migration fan-out's phase-1 workers
  // decompress compressed sources through it while no tier mutates; the
  // matching load statistics commit in phase 2 through CommitLoads.
  StatusOr<std::span<const std::byte>> PeekCompressed(ZPoolHandle handle) const {
    return pool_->Peek(handle);
  }

  // Charges `n` loads to stats/counters without re-decompressing — the
  // migration fan-out decompresses compressed sources in phase-1 workers via
  // PeekCompressed and commits their statistics here, in page order (phase 2).
  void CommitLoads(std::uint64_t n) {
    stats_.loads += n;
    m_loads_->Add(n);
  }

  // Virtual-time cost of loading an entry of the given compressed size.
  Nanos LoadCost(std::size_t compressed_size) const;
  // Expected load cost for a typical entry (used by the placement models).
  Nanos NominalLoadCost() const;
  Nanos StoreCost(std::size_t compressed_size) const;

  // Number of pages currently stored (objects in the pool).
  std::size_t stored_pages() const { return pool_->object_count(); }
  // Real memory held on the backing medium.
  std::size_t pool_bytes() const { return pool_->pool_bytes(); }
  // Measured compression ratio including pool fragmentation: pool bytes per
  // stored original byte. In (0, 1] for useful tiers.
  double EffectiveRatio() const;

  const Stats& stats() const { return stats_; }
  // Compressed bytes summed over every successful store (the numerator of
  // NominalLoadCost's running average; never decremented by invalidates).
  std::uint64_t total_compressed_bytes() const { return total_compressed_bytes_; }
  void RecordFault() {
    ++stats_.faults;
    m_faults_->Add();
  }

  // --- Grant cap (multi-tenant arbitration, DESIGN.md §4f) -----------------
  // Soft high-water partition of this tier's pool footprint: a store that
  // finds pool_bytes() at or above the grant fails with kOutOfMemory — the
  // same status genuine medium exhaustion produces, so the migration
  // pipeline's partial-placement path absorbs it. Existing entries are never
  // evicted by shrinking the grant; the cap only gates new stores. Defaults
  // to no cap.
  void set_grant_bytes(std::size_t bytes) { grant_bytes_ = bytes; }
  std::size_t grant_bytes() const { return grant_bytes_; }

  // Normalized dollars for the pool's current footprint.
  double UsedCost() const { return BytesToGiB(pool_bytes()) * medium_.cost_per_gib(); }

 private:
  void UpdateOccupancyGauges();

  int tier_id_;
  CompressedTierConfig config_;
  Medium& medium_;
  FaultInjector* fault_;
  std::size_t grant_bytes_ = ~std::size_t{0};  // no cap until an arbiter says so
  const Compressor* compressor_;
  std::unique_ptr<ZPool> pool_;
  Stats stats_;
  // Running average of compressed sizes, for NominalLoadCost.
  std::uint64_t total_compressed_bytes_ = 0;
  std::uint64_t total_stored_ = 0;
  // Metric handles resolved once at construction (obs/metrics.h contract).
  Counter* m_stores_;
  Counter* m_rejects_;
  Counter* m_loads_;
  Counter* m_faults_;
  Counter* m_invalidates_;
  Counter* m_compressed_bytes_;
  Gauge* m_pool_bytes_;
  Gauge* m_stored_pages_;
};

}  // namespace tierscape

#endif  // SRC_ZSWAP_COMPRESSED_TIER_H_
