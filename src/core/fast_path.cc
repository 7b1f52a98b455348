#include "src/core/fast_path.h"

#include <algorithm>
#include <string>

namespace tierscape {

Status FastPathConfig::Validate() const {
  if (!enabled) {
    return OkStatus();
  }
  if (promote_hits == 0) {
    return InvalidArgument("FastPathConfig: promote_hits (K) must be >= 1");
  }
  if (pin_windows == 0) {
    return InvalidArgument("FastPathConfig: pin_windows (M) must be >= 1");
  }
  if (max_promotions_per_window == 0) {
    return InvalidArgument("FastPathConfig: max_promotions_per_window must be >= 1");
  }
  if (degraded_k_shift_cap > 16) {
    return InvalidArgument("FastPathConfig: degraded_k_shift_cap must be <= 16, got " +
                           std::to_string(degraded_k_shift_cap));
  }
  if (suppress_after == 0) {
    return InvalidArgument("FastPathConfig: suppress_after must be >= 1 (0 would never arm)");
  }
  return OkStatus();
}

FastPath::FastPath(const FastPathConfig& config, TieringEngine& engine)
    : config_(config), engine_(engine) {
  MetricsRegistry& metrics = engine_.obs().metrics;
  m_promotions_ = &metrics.GetCounter("fastpath/promotions");
  m_promoted_pages_ = &metrics.GetCounter("fastpath/promoted_pages");
  m_pingpong_pins_ = &metrics.GetCounter("fastpath/pingpong_pins");
  m_dropped_budget_ = &metrics.GetCounter("fastpath/dropped_budget");
  m_suppressed_windows_ = &metrics.GetCounter("fastpath/suppressed_windows");
  m_pinned_active_ = &metrics.GetGauge("fastpath/pinned_active");
  m_effective_k_ = &metrics.GetGauge("fastpath/effective_k");
  RearmStreakDetector();
}

Status FastPath::OnEvent() {
  std::vector<std::uint64_t> ready = engine_.sampler().TakeStreakRegions();
  if (ready.empty()) {
    return OkStatus();
  }
  for (const std::uint64_t region : ready) {
    if (window_stats_.promotions >= config_.max_promotions_per_window) {
      ++window_stats_.dropped_budget;
      m_dropped_budget_->Add();
      continue;
    }
    if (engine_.RegionTier(region) == 0) {
      continue;  // already (dominantly) byte-resident in DRAM
    }
    auto moved = engine_.PromoteRegion(region);
    if (!moved.ok()) {
      return moved.status();
    }
    ++window_stats_.promotions;
    m_promotions_->Add();
    m_promoted_pages_->Add(moved->moved);
    // Ping-pong: demoted by a boundary within the last M windows and now hot
    // enough to pull back — pin it to DRAM for the next M boundary solves.
    const auto demoted = last_demoted_.find(region);
    if (demoted != last_demoted_.end() && window_ - demoted->second < config_.pin_windows) {
      const auto [it, inserted] =
          pinned_until_.try_emplace(region, window_ + config_.pin_windows);
      if (inserted) {
        pinned_sorted_.insert(
            std::lower_bound(pinned_sorted_.begin(), pinned_sorted_.end(), region), region);
        ++window_stats_.pingpong_pins;
        m_pingpong_pins_->Add();
        m_pinned_active_->Set(static_cast<double>(pinned_sorted_.size()));
      } else {
        it->second = window_ + config_.pin_windows;  // extend the existing pin
      }
    }
  }
  return OkStatus();
}

void FastPath::OnWindowClosed(bool degraded) {
  consecutive_degraded_ = degraded ? consecutive_degraded_ + 1 : 0;
  ++window_;
  // Expire pins whose horizon passed and forget demotions older than the
  // ping-pong horizon (bounds both maps by live churn, not footprint).
  for (auto it = pinned_until_.begin(); it != pinned_until_.end();) {
    it = it->second <= window_ ? pinned_until_.erase(it) : std::next(it);
  }
  pinned_sorted_.clear();
  pinned_sorted_.reserve(pinned_until_.size());
  for (const auto& [region, until] : pinned_until_) {
    pinned_sorted_.push_back(region);
  }
  std::sort(pinned_sorted_.begin(), pinned_sorted_.end());
  for (auto it = last_demoted_.begin(); it != last_demoted_.end();) {
    it = window_ - it->second >= config_.pin_windows ? last_demoted_.erase(it) : std::next(it);
  }
  window_stats_ = WindowStats{};
  RearmStreakDetector();
  m_pinned_active_->Set(static_cast<double>(pinned_sorted_.size()));
}

void FastPath::NoteBoundaryMove(std::uint64_t region, int from_tier, int to_tier) {
  if (to_tier > from_tier) {
    last_demoted_[region] = window_;
  }
}

void FastPath::RearmStreakDetector() {
  if (consecutive_degraded_ >= config_.suppress_after) {
    // Backpressure ceiling (§4d -> §4h): the assembly is shedding load;
    // speculative promotion stays disarmed until a clean window.
    effective_hits_ = 0;
    m_suppressed_windows_->Add();
  } else {
    const std::uint32_t shift = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(consecutive_degraded_, config_.degraded_k_shift_cap));
    effective_hits_ = config_.promote_hits << shift;
  }
  engine_.sampler().set_streak_threshold(effective_hits_);
  m_effective_k_->Set(static_cast<double>(effective_hits_));
}

}  // namespace tierscape
