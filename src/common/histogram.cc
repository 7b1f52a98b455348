#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace tierscape {

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits), sub_bucket_count_(1ULL << sub_bucket_bits) {
  TS_CHECK_GE(sub_bucket_bits, 1);
  TS_CHECK_LE(sub_bucket_bits, 12);
  // 64 power-of-two ranges, each with sub_bucket_count_ linear buckets, covers
  // the full uint64 domain.
  buckets_.assign(64 * sub_bucket_count_, 0);
}

std::uint64_t Histogram::BucketMidpoint(std::size_t index) const {
  const std::size_t range = index / sub_bucket_count_;
  const std::uint64_t sub = index % sub_bucket_count_;
  if (range == 0) {
    return sub;
  }
  const int shift = static_cast<int>(range) - 1;
  const std::uint64_t lo = (sub_bucket_count_ + sub) << shift;
  const std::uint64_t width = 1ULL << shift;
  return lo + width / 2;
}

void Histogram::Merge(const Histogram& other) {
  TS_CHECK_EQ(sub_bucket_bits_, other.sub_bucket_bits_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::Percentile(double quantile) const {
  if (count_ == 0) {
    return 0;
  }
  quantile = std::clamp(quantile, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(quantile * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(BucketMidpoint(i), max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

double ExactPercentile(std::vector<double> values, double quantile) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  quantile = std::clamp(quantile, 0.0, 1.0);
  const double pos = quantile * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace tierscape
