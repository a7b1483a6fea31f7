#include "stats/hdr_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pmsb {

HdrHistogram::HdrHistogram(unsigned precision_bits) : p_(precision_bits) {
  PMSB_CHECK(p_ >= 1 && p_ <= 20, "HdrHistogram precision_bits out of [1, 20]");
  sub_ = std::uint64_t{1} << p_;
  half_ = sub_ / 2;
  // Highest index is reached at value 2^64 - 1 (shift = 64 - p_):
  // (64 - p_) * half_ + sub_ - 1, so the range needs one more bucket.
  buckets_ = static_cast<std::size_t>(64 - p_) * half_ + sub_;
}

void HdrHistogram::store_through(std::size_t i) {
  // A power of four buckets. Each growth quadruples the octaves stored, so
  // a latency that rises for the whole run (a fabric past saturation)
  // reallocates only a handful of times: at p = 7, 256 buckets hold values
  // below 512 and 1024 buckets values below 2^21.
  std::size_t n = std::max<std::size_t>(counts_.size(), 1);
  while (n <= i) n *= 4;
  counts_.resize(std::min(n, buckets_), 0);
}

std::size_t HdrHistogram::index_of(std::uint64_t value) const {
  if (value < sub_) return static_cast<std::size_t>(value);
  // Keep the top p_ bits; every value with the same (shift, top bits) shares
  // a bucket of width 2^shift, i.e. relative width 2^-p_. The result is
  // contiguous with the exact range: value sub_ lands on index sub_.
  const unsigned shift = static_cast<unsigned>(std::bit_width(value)) - p_;
  return static_cast<std::size_t>(shift) * half_ +
         static_cast<std::size_t>(value >> shift);
}

std::uint64_t HdrHistogram::bucket_low(std::size_t i) const {
  if (i < sub_) return i;
  // i = shift * half_ + top with top in [half_, sub_), so i / half_ is
  // shift + 1 exactly.
  const unsigned shift = static_cast<unsigned>(i / half_) - 1;
  const std::uint64_t top = i - static_cast<std::uint64_t>(shift) * half_;
  return top << shift;
}

std::uint64_t HdrHistogram::bucket_high(std::size_t i) const {
  if (i < sub_) return i;
  const unsigned shift = static_cast<unsigned>(i / half_) - 1;
  const std::uint64_t top = i - static_cast<std::uint64_t>(shift) * half_;
  return ((top + 1) << shift) - 1;
}

void HdrHistogram::add(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t i = index_of(value);
  if (i >= counts_.size()) store_through(i);
  counts_[i] += count;
  if (samples_ == 0 || value < min_) min_ = value;
  if (samples_ == 0 || value > max_) max_ = value;
  samples_ += count;
  sum_ += value * count;
}

double HdrHistogram::mean() const {
  if (samples_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(samples_);
}

std::uint64_t HdrHistogram::percentile(double q) const {
  PMSB_CHECK(q >= 0.0 && q <= 1.0, "HdrHistogram percentile rank out of [0, 1]");
  if (samples_ == 0) return 0;
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(samples_)));
  if (target == 0) target = 1;
  if (target > samples_) target = samples_;
  std::uint64_t cum = 0;
  const std::size_t last = index_of(max_);
  for (std::size_t i = index_of(min_); i <= last; ++i) {
    cum += counts_[i];
    if (cum >= target) {
      const std::uint64_t hi = bucket_high(i);
      if (hi > max_) return max_;
      if (hi < min_) return min_;
      return hi;
    }
  }
  return max_;
}

void HdrHistogram::merge(const HdrHistogram& other) {
  PMSB_CHECK(p_ == other.p_, "HdrHistogram merge with mismatched precision");
  if (other.samples_ == 0) return;
  // Nothing is recorded above other's max, so its buckets through
  // index_of(other.max_) carry every count (and are all stored).
  const std::size_t top = other.index_of(other.max_);
  if (top >= counts_.size()) store_through(top);
  for (std::size_t i = 0; i <= top; ++i) counts_[i] += other.counts_[i];
  if (samples_ == 0 || other.min_ < min_) min_ = other.min_;
  if (samples_ == 0 || other.max_ > max_) max_ = other.max_;
  samples_ += other.samples_;
  sum_ += other.sum_;
}

void HdrHistogram::clear() {
  counts_.assign(counts_.size(), 0);
  samples_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

}  // namespace pmsb
