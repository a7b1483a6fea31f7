// Cell flight recorder: an EventHub subscriber that decomposes every cell's
// life inside the shared buffer into the paper's pipeline stages and feeds
// each stage's residency into HDR histograms, so a bench can answer "is the
// delay queueing, pipeline, or serialization?" instead of reporting one
// end-to-end number.
//
// Stage decomposition (all cycles, per delivered cell):
//   wait_grant = t0 - a0        address/write-wave grant delay: the head
//                               arrived at the end of a0 and the write wave
//                               was granted at t0, inside the paper's
//                               [a0 + 1, a0 + 2n] acceptance window.
//   buffer     = tr - t0        residency between write initiation and read
//                               initiation: output queueing plus the wave
//                               pipeline (0 when the read cut through in the
//                               same cycle the write started).
//   serialize  = L              output serialization: cell_words words leave
//                               at one word per cycle after tr.
//   total      = tr + L - a0  = wait_grant + buffer + serialize.
//
// The decomposition is *additive by construction*: all four histograms are
// recorded at the single on_read_grant event (which carries output, input,
// tr, t0, a0), so they always hold the same sample set and
// sum(total) == sum(wait_grant) + sum(buffer) + sum(serialize) exactly.
// Recording needs no per-cell state, which keeps attachment cheap and makes
// recorders merge deterministically across fabric shards (node order).
//
// Both PipelinedSwitch and FastSwitch emit the same event stream, so the
// recorder attaches to either (and to every node of a mixed fabric).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/util.hpp"
#include "core/event_hub.hpp"
#include "obs/metrics.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb::obs {

enum class FlightStage : unsigned {
  kWaitGrant = 0,  ///< t0 - a0: address/write-wave grant delay.
  kBuffer,         ///< tr - t0: output queueing + wave pipeline.
  kSerialize,      ///< L: output serialization.
  kTotal,          ///< tr + L - a0: head-to-tail-departure latency.
};
inline constexpr unsigned kFlightStageCount = 4;
const char* to_string(FlightStage s);

struct FlightRecorderConfig {
  /// Cells whose head arrived before `warmup` are not recorded.
  Cycle warmup = 0;
  /// Also keep one total-latency histogram per (input, output) pair
  /// (n_ports^2 histograms -- enable for benches, not for every fabric node).
  bool per_pair = false;
};

class FlightRecorder {
 public:
  /// `cell_words` is the serialization length L of the attached switch
  /// (SwitchConfig::cell_words).
  FlightRecorder(unsigned n_ports, unsigned cell_words, FlightRecorderConfig cfg = {});

  /// Subscribe to a switch's event hub (replaces any previous attachment);
  /// the subscription is dropped on destruction or detach().
  void attach(EventHub& hub);
  void detach() { sub_.reset(); }

  /// Optional live counters (null-pointer fast path until this is called).
  void register_metrics(MetricsRegistry& m, const std::string& prefix = "flight");

  const HdrHistogram& stage(FlightStage s) const {
    return stages_[static_cast<unsigned>(s)];
  }
  /// Total-latency histogram for one (input, output) pair; requires per_pair.
  const HdrHistogram& pair_total(unsigned input, unsigned output) const;

  std::uint64_t heads() const { return heads_; }        ///< Post-warmup head arrivals.
  std::uint64_t completed() const { return completed_; }///< Cells fully recorded.
  std::uint64_t dropped() const { return dropped_; }    ///< Post-warmup drops.
  unsigned n_ports() const { return n_ports_; }
  unsigned cell_words() const { return cell_words_; }
  const FlightRecorderConfig& config() const { return cfg_; }

  /// Fold another recorder's histograms and counts in; geometries and
  /// configs must match. Merging in a fixed (node) order keeps fabric-wide
  /// percentiles bit-identical at any shard count.
  void merge(const FlightRecorder& other);
  void clear();

 private:
  void on_head(Cycle a0);
  void on_drop(Cycle a0);
  void on_read_grant(unsigned output, unsigned input, Cycle tr, Cycle t0, Cycle a0);

  unsigned n_ports_;
  unsigned cell_words_;
  FlightRecorderConfig cfg_;
  std::vector<HdrHistogram> stages_;  ///< kFlightStageCount entries.
  std::vector<HdrHistogram> pairs_;   ///< n^2 entries when cfg_.per_pair.
  std::uint64_t heads_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  Counter* m_completed_ = nullptr;  ///< Null when metrics are detached.
  Counter* m_dropped_ = nullptr;
  Subscription sub_;
};

}  // namespace pmsb::obs
