// Experiment statistics: running moments, latency tracking with warmup,
// throughput/loss accounting. All counters are exact integers where the
// quantity is a count; floating point only enters at reporting time.

#pragma once

#include <cstdint>
#include <string>

#include "common/util.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb {

/// Running mean / variance (Welford). For real-valued observations.
class RunningStats {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  /// Half-width of the ~95% normal confidence interval of the mean.
  double ci95_halfwidth() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Latency statistics with a warmup horizon: samples with an injection time
/// before `warmup_until` are discarded so transients do not pollute
/// steady-state measurements. Backed by an HdrHistogram, so tails are never
/// clamped: p50/p90/p99/p99.9 are exact below 128 cycles and within 2^-7
/// relative error above (HdrHistogram's default precision), regardless of
/// how long the run gets. A tracker allocates nothing until its first
/// sample, and then memory in proportion to the log of its largest one.
class LatencyStats {
 public:
  explicit LatencyStats(Cycle warmup_until = 0) : warmup_until_(warmup_until) {}

  void set_warmup(Cycle until) { warmup_until_ = until; }

  /// Record a delivery: injected at `t_in`, delivered (head) at `t_out`.
  void record(Cycle t_in, Cycle t_out);

  std::uint64_t samples() const { return hist_.samples(); }
  double mean() const { return hist_.mean(); }
  std::uint64_t p50() const { return hist_.p50(); }
  std::uint64_t p90() const { return hist_.p90(); }
  std::uint64_t p99() const { return hist_.p99(); }
  std::uint64_t p999() const { return hist_.p999(); }
  std::uint64_t min() const { return hist_.min(); }
  std::uint64_t max() const { return hist_.max(); }
  const HdrHistogram& histogram() const { return hist_; }

  /// Fold another tracker's samples in (warmup filtering already applied by
  /// the donor).
  void merge(const LatencyStats& other) { hist_.merge(other.hist_); }

 private:
  Cycle warmup_until_;
  HdrHistogram hist_;
};

/// Offered / carried / lost accounting for one run.
struct FlowCounts {
  std::uint64_t injected = 0;   ///< Cells offered to the device.
  std::uint64_t delivered = 0;  ///< Cells emitted on output links.
  std::uint64_t dropped = 0;    ///< Cells lost inside the device.

  std::uint64_t outstanding() const { return injected - delivered - dropped; }
  double loss_ratio() const {
    return injected == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(injected);
  }
};

/// Normalized throughput: delivered cells per output per slot.
double normalized_throughput(std::uint64_t delivered, unsigned n_outputs, std::uint64_t slots);

}  // namespace pmsb
