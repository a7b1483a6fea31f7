// Time-series sampling of the metrics registry: a bounded ring of per-sample
// snapshots taken on the Engine's existing metric grid (see
// Engine::set_metrics), so a bench can show *when* buffer pressure built up
// instead of one end-of-run aggregate.
//
// The sampler registers a sample hook on the registry and, each time the
// engine samples, records one row: the delta of every counter since the
// previous snapshot (registration order) and the freshly pulled value of
// every gauge. Deltas rather than absolutes: rows stay meaningful after the
// ring wraps, and counter *rates* are what a timeline renders.
//
// Because the engine replays metric-sample boundaries exactly when idle
// skipping (Engine::skip_to) and samples on the same grid at any thread
// count, the retained rows are bit-identical across PMSB_THREADS and
// PMSB_IDLE_SKIP -- so the exported `timeseries` section stays inside the
// determinism-diffed part of the BENCH JSON.
//
// Lifetime: the registry must outlive the sampler (the sampler unhooks in
// its destructor). Declare the registry first.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/util.hpp"
#include "obs/metrics.hpp"

namespace pmsb::obs {

class PerfettoTrace;

class TimeSeriesSampler {
 public:
  struct Row {
    Cycle t = 0;
    std::vector<std::uint64_t> counter_deltas;  ///< Since the previous snapshot.
    std::vector<double> gauges;                 ///< Values pulled at this sample.
  };

  /// Resolved export form: column names plus rows padded to full width (a
  /// counter registered mid-run yields zeros for earlier rows).
  struct Series {
    std::vector<std::string> counter_columns;
    std::vector<std::string> gauge_columns;
    std::vector<Row> rows;        ///< Oldest retained first.
    std::uint64_t dropped = 0;    ///< Rows lost to ring wrap.
  };

  /// Hooks into `m` (no-op if null; the sampler then stays empty,
  /// preserving the zero-cost-when-detached contract).
  explicit TimeSeriesSampler(MetricsRegistry* m, std::size_t capacity = 512);
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Take one snapshot now; normally invoked via the registry's sample hook.
  void snapshot(Cycle t);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  /// Row i of the retained window, 0 = oldest.
  const Row& at(std::size_t i) const;

  Series series() const;

  /// Render as Perfetto counter tracks: one track per component (metric-name
  /// prefix before the first '.'), that component's series as stacked args.
  /// Counter columns are suffixed "/delta" to distinguish them from gauges.
  void to_perfetto(PerfettoTrace& out) const;

 private:
  MetricsRegistry* reg_;
  std::uint64_t hook_id_ = 0;
  std::size_t capacity_;
  std::vector<Row> ring_;  ///< Insertion-ordered ring; head_ is the oldest.
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> prev_counters_;  ///< Absolutes at last snapshot.
};

}  // namespace pmsb::obs
