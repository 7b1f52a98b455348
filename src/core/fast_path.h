// Event-driven sub-window placement fast path (DESIGN.md §4h).
//
// The boundary loop (TsDaemon::OnWindowEnd) reacts to a hotness shift only at
// the next window close — up to a full profile window late, which is exactly
// where Fig. 11's p99.9 tail comes from: a suddenly-hot compressed region
// pays a decompression fault per first-touched page until the boundary solve
// rescues it. The fast path closes that gap TPP-style (PAPERS.md): when the
// PEBS sampler sees K hits on one region within the current window
// (PebsSampler streak detection), the region is promoted to DRAM immediately,
// mid-window, on the sequential Observe() path — virtual-time triggered and
// deterministic.
//
// Two dampers keep the reactivity from thrashing (Jenga-style):
//  * Ping-pong pinning — a region the boundary loop demoted within the last M
//    windows that the fast path now re-promotes is oscillating; it is pinned
//    to DRAM for M windows. Pins flow into DecisionContext::pinned, where
//    threshold policies hold the region and the MigrationFilter's
//    unconditional pinned class drops any surviving move.
//  * Degradation backpressure — each consecutive degraded window (§4d ladder:
//    solver fallback or unrealized pages) doubles the effective K (capped),
//    and after `suppress_after` consecutive degraded windows speculative
//    promotion is disarmed entirely until a clean window.
#ifndef SRC_CORE_FAST_PATH_H_
#define SRC_CORE_FAST_PATH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/tiering/engine.h"

namespace tierscape {

struct FastPathConfig {
  // Off by default: every existing figure keeps its boundary-only behavior
  // bit-identical unless a config opts in.
  bool enabled = false;
  // K: sampled hits on one region within a window that trigger promotion.
  std::uint32_t promote_hits = 3;
  // M: ping-pong horizon — a region demoted within the last M windows that
  // the fast path re-promotes gets pinned for the next M windows.
  std::uint32_t pin_windows = 4;
  // Budget: mid-window promotions per window (excess triggers are dropped —
  // the boundary solve still sees their samples).
  std::uint32_t max_promotions_per_window = 32;
  // Backpressure: each consecutive degraded window shifts K left by one, up
  // to this cap; at `suppress_after` consecutive degraded windows the
  // detector is disarmed until a clean window.
  std::uint32_t degraded_k_shift_cap = 4;
  std::uint32_t suppress_after = 3;

  // Rejects nonsensical knobs; checked with the owning DaemonConfig.
  Status Validate() const;
};

class FastPath {
 public:
  // Per-window activity, reset by OnWindowClosed (and surfaced in
  // TsDaemon::WindowRecord before the reset).
  struct WindowStats {
    std::uint64_t promotions = 0;     // regions pulled to DRAM mid-window
    std::uint64_t pingpong_pins = 0;  // pins created
    std::uint64_t dropped_budget = 0;  // triggers past max_promotions_per_window
  };

  // Arms the sampler's streak detector; resolves "fastpath/..." handles from
  // the engine's observability scope (handle resolution at construction,
  // DESIGN.md §4b). `config` must already be validated.
  FastPath(const FastPathConfig& config, TieringEngine& engine);

  // Trigger pump, called by TsDaemon::Observe between workload ops on the
  // sequential path: drains the sampler's K-hit queue (crossing order) and
  // promotes qualifying regions to DRAM. Deterministic — a pure function of
  // the access stream and the window history.
  Status OnEvent();

  // Boundary bookkeeping, called at the end of TsDaemon::OnWindowEnd with the
  // closing window's degradation verdict: folds it into the backpressure
  // ladder, advances the window index, expires pins, resets the per-window
  // budget, and re-arms the streak detector for the next window.
  void OnWindowClosed(bool degraded);

  // Fed by the daemon's boundary migrate loop for every region it actually
  // moved, so the ping-pong detector knows when a region was last demoted.
  void NoteBoundaryMove(std::uint64_t region, int from_tier, int to_tier);

  // Active pins, sorted ascending — the DecisionContext::pinned feed.
  const std::vector<std::uint64_t>& pinned_regions() const { return pinned_sorted_; }
  const WindowStats& window_stats() const { return window_stats_; }
  // Effective K after backpressure; 0 while promotion is suppressed.
  std::uint32_t effective_promote_hits() const { return effective_hits_; }
  bool suppressed() const { return effective_hits_ == 0; }
  std::uint64_t consecutive_degraded() const { return consecutive_degraded_; }

 private:
  void RearmStreakDetector();

  FastPathConfig config_;
  TieringEngine& engine_;
  std::uint64_t window_ = 0;  // index of the window currently filling
  std::uint32_t effective_hits_ = 0;
  std::uint64_t consecutive_degraded_ = 0;
  WindowStats window_stats_;
  std::unordered_map<std::uint64_t, std::uint64_t> last_demoted_;  // region -> window
  std::unordered_map<std::uint64_t, std::uint64_t> pinned_until_;  // region -> window (excl.)
  std::vector<std::uint64_t> pinned_sorted_;
  Counter* m_promotions_ = nullptr;
  Counter* m_promoted_pages_ = nullptr;
  Counter* m_pingpong_pins_ = nullptr;
  Counter* m_dropped_budget_ = nullptr;
  Counter* m_suppressed_windows_ = nullptr;
  Gauge* m_pinned_active_ = nullptr;
  Gauge* m_effective_k_ = nullptr;
};

}  // namespace tierscape

#endif  // SRC_CORE_FAST_PATH_H_
