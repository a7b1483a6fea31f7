// Constant-memory log-bucketed histogram for latency distributions
// (HdrHistogram-style), the repository's one histogram. Unlike a dense
// histogram with an overflow bucket, it has no clamp that could silently
// turn a p99.9 of 20000 cycles into "4096".
//
// Bucketing: values below 2^precision_bits are recorded exactly (one bucket
// per value); above that, each power-of-two range is split into
// 2^(precision_bits - 1) sub-buckets, so any recorded value is off by at
// most a factor of 2^-precision_bits (< 1% at the default 7 bits). The full
// 64-bit value range fits in ~(64 - p) * 2^(p-1) + 2^p buckets -- ~30 KiB
// at p = 7 -- independent of the values recorded, so one histogram per
// fabric node (or per (input, output) pair) is cheap.
//
// Sums and sample counts are exact (percentile resolution is the only
// approximation), and two histograms of equal precision merge by bucket-wise
// addition -- the property the sharded fabric relies on to aggregate
// per-node recorders into fabric-wide percentiles deterministically.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

class HdrHistogram {
 public:
  static constexpr unsigned kDefaultPrecisionBits = 7;

  /// precision_bits in [1, 20]: values < 2^precision_bits are exact; larger
  /// values land in buckets of relative width 2^-precision_bits.
  explicit HdrHistogram(unsigned precision_bits = kDefaultPrecisionBits);

  void add(std::uint64_t value, std::uint64_t count = 1);

  std::uint64_t samples() const { return samples_; }
  std::uint64_t sum() const { return sum_; }  ///< Exact (unbucketed) sum.
  double mean() const;                        ///< Exact: sum / samples.
  std::uint64_t min() const { return samples_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return samples_ == 0 ? 0 : max_; }

  /// q in [0, 1]: the smallest value v with CDF(v) >= q, at bucket
  /// resolution (upper bound of the containing bucket, clamped to the
  /// recorded [min, max] so exact extremes stay exact).
  std::uint64_t percentile(double q) const;
  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p90() const { return percentile(0.90); }
  std::uint64_t p99() const { return percentile(0.99); }
  std::uint64_t p999() const { return percentile(0.999); }

  /// Bucket-wise addition; `other` must have the same precision.
  void merge(const HdrHistogram& other);
  void clear();

  unsigned precision_bits() const { return p_; }
  /// Upper bound on the relative error of any percentile.
  double relative_error() const { return 1.0 / static_cast<double>(sub_); }

  // ---- Bucket introspection (tests, reporting) ----------------------------
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t count_at(std::size_t i) const { return counts_[i]; }
  std::uint64_t bucket_low(std::size_t i) const;   ///< Smallest value of bucket i.
  std::uint64_t bucket_high(std::size_t i) const;  ///< Largest value of bucket i.
  std::size_t index_of(std::uint64_t value) const;

 private:
  unsigned p_;          ///< Precision bits.
  std::uint64_t sub_;   ///< 2^p_: exact range, sub-buckets per octave.
  std::uint64_t half_;  ///< sub_ / 2: new buckets per octave above the exact range.
  std::vector<std::uint64_t> counts_;
  std::uint64_t samples_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace pmsb
