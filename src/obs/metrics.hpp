// Structured observability: a registry of cheap named counters, sampled
// gauges, and histograms that components register into once and update from
// their hot paths at the cost of a pointer test plus an increment.
//
// Design rules (the zero-cost-when-disabled contract):
//  * A component caches raw Counter* pointers at register_metrics() time.
//    With no registry attached (or a disabled one) those pointers are null
//    and the hot path pays exactly one predictable branch.
//  * Gauges are pull-based: the registry stores a callback and only invokes
//    it when sample() runs (the Engine calls sample() every `period` cycles
//    -- see Engine::set_metrics). Components pay nothing between samples.
//  * Names are hierarchical by convention ("switch.free_list.in_use");
//    registration order is preserved so snapshots are deterministic.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/util.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb::obs {

/// A monotonically increasing named count. Pointer-stable for the lifetime
/// of the owning registry.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// High-water style update: raise to `v` if larger.
  void record_max(std::uint64_t v) {
    if (v > value_) value_ = v;
  }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Accumulated statistics of one gauge across sample() calls.
struct GaugeStats {
  std::uint64_t samples = 0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  double mean() const { return samples == 0 ? 0.0 : sum / static_cast<double>(samples); }
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  /// Disabling makes counter() return nullptr and add_gauge()/hdr_histogram()
  /// no-ops, so instrumented components stay on their null-pointer fast
  /// path. Flip before registering components.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Create-or-get a counter. Returns nullptr when disabled.
  Counter* counter(const std::string& name);

  /// Register a gauge sampled on every sample() call. No-op when disabled.
  void add_gauge(const std::string& name, std::function<double()> fn);

  /// Create-or-get a constant-memory log-bucketed histogram for unbounded
  /// (latency-like) values. Returns nullptr when disabled. Re-requesting an
  /// existing name with a different precision is a PMSB_CHECK failure.
  HdrHistogram* hdr_histogram(const std::string& name,
                              unsigned precision_bits = HdrHistogram::kDefaultPrecisionBits);

  /// Pull every gauge once. The Engine calls this on its sampling period.
  /// Sample hooks (e.g. the TimeSeriesSampler) fire after gauges update, so
  /// a hook observes the freshly pulled values.
  void sample(Cycle t);

  /// Register a callback invoked at the end of every sample(). Returns an
  /// id for remove_sample_hook(); returns 0 (no-op) when disabled.
  std::uint64_t add_sample_hook(std::function<void(Cycle)> fn);
  void remove_sample_hook(std::uint64_t id);

  Cycle last_sample_cycle() const { return last_sample_; }
  std::uint64_t samples_taken() const { return samples_taken_; }

  /// Zero all counters, gauge accumulations, and histograms (registrations
  /// survive; cached Counter* pointers stay valid).
  void reset();

  // ---- Introspection (reporting-time only) ---------------------------------

  const Counter* find_counter(const std::string& name) const;
  const GaugeStats* find_gauge(const std::string& name) const;
  const HdrHistogram* find_hdr_histogram(const std::string& name) const;

  // Index-based access in registration order: lets per-sample consumers
  // (TimeSeriesSampler) read values without building name-copying views.
  std::size_t counter_count() const { return counters_.size(); }
  const std::string& counter_name(std::size_t i) const { return counters_[i].name; }
  std::uint64_t counter_value(std::size_t i) const { return counters_[i].counter->value(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  const std::string& gauge_name(std::size_t i) const { return gauges_[i].name; }
  /// Value pulled by the most recent sample() (0.0 before the first).
  double gauge_last(std::size_t i) const { return gauges_[i].stats.last; }

  struct CounterView {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeView {
    std::string name;
    GaugeStats stats;
  };
  struct HdrHistogramView {
    std::string name;
    const HdrHistogram* hist;
  };

  std::vector<CounterView> counters() const;
  std::vector<GaugeView> gauges() const;
  std::vector<HdrHistogramView> hdr_histograms() const;

 private:
  struct GaugeEntry {
    std::string name;
    std::function<double()> fn;
    GaugeStats stats;
  };
  struct CounterEntry {
    std::string name;
    std::unique_ptr<Counter> counter;  ///< unique_ptr: pointer stability.
  };
  struct HdrEntry {
    std::string name;
    std::unique_ptr<HdrHistogram> hist;
  };
  struct HookEntry {
    std::uint64_t id;
    std::function<void(Cycle)> fn;
  };

  bool enabled_;
  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HdrEntry> hdr_hists_;
  std::vector<HookEntry> hooks_;
  std::uint64_t next_hook_id_ = 1;
  Cycle last_sample_ = 0;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace pmsb::obs
