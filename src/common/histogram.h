// Log-linear latency histogram (HdrHistogram-style) used for the tail-latency
// experiments (Figure 11) and for TS-Daemon diagnostics.
//
// Values are bucketed with bounded relative error (~1/32 by default), so p99.9
// over millions of samples costs a few KiB of memory and O(1) per record.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace tierscape {

class Histogram {
 public:
  // sub_bucket_bits controls relative precision: each power-of-two range is
  // split into 2^sub_bucket_bits linear buckets.
  explicit Histogram(int sub_bucket_bits = 5);

  // Inline: the driver records every simulated op's latency.
  void Record(std::uint64_t value) { RecordN(value, 1); }
  void RecordN(std::uint64_t value, std::uint64_t count) {
    if (count == 0) {
      return;
    }
    buckets_[BucketIndex(value)] += count;
    count_ += count;
    sum_ += value * count;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  // Merges another histogram with the same precision into this one.
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const;

  // Returns the smallest bucket midpoint v such that at least `quantile`
  // of recorded values are <= v. quantile in [0, 1].
  std::uint64_t Percentile(double quantile) const;

  void Reset();

 private:
  std::size_t BucketIndex(std::uint64_t value) const {
    if (value < sub_bucket_count_) {
      return static_cast<std::size_t>(value);
    }
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - sub_bucket_bits_;
    const std::uint64_t sub = (value >> shift) - sub_bucket_count_;  // in [0, sub_bucket_count_)
    const std::size_t range = static_cast<std::size_t>(msb - sub_bucket_bits_ + 1);
    return range * sub_bucket_count_ + static_cast<std::size_t>(sub);
  }
  std::uint64_t BucketMidpoint(std::size_t index) const;

  int sub_bucket_bits_;
  std::uint64_t sub_bucket_count_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

// Simple helper for exact percentiles over small sample sets.
double ExactPercentile(std::vector<double> values, double quantile);

}  // namespace tierscape

#endif  // SRC_COMMON_HISTOGRAM_H_
