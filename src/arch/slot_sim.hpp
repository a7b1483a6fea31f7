// Slot-time behavioural switch models for the section 2 architecture
// comparison (figures 1 and 2): input queueing, non-FIFO input buffering
// (VOQ + PIM), output queueing, shared buffering, crosspoint queueing,
// block-crosspoint buffering, and input smoothing [HlKa88].
//
// One slot = one cell time. Convention (uniform across all models so the
// comparisons are apples-to-apples): within a slot, arrivals are enqueued
// first (drops happen here, at full buffers), then each output transmits at
// most one cell. A cell arriving at an idle, uncontended path therefore has
// latency 0 slots; reported latencies are relative, which is what the
// paper's factor-of-two claims are about.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "stats/stats.hpp"
#include "traffic/generators.hpp"

namespace pmsb {

/// A queued cell in a behavioural model.
struct SlotCell {
  Cycle injected = 0;
  unsigned input = 0;
  unsigned dest = 0;
};

class SlotModel {
 public:
  explicit SlotModel(unsigned n) : n_(n), latency_(0) {
    PMSB_CHECK(n > 0, "model needs at least one port");
  }
  virtual ~SlotModel() = default;

  unsigned ports() const { return n_; }

  /// Process one slot. arrivals[i] is input i's arriving cell, if any.
  /// Non-virtual: snapshots the flow counters the first time `slot` crosses
  /// the warmup horizon so measured_counts() can window them, then delegates
  /// to the model-specific do_step().
  void step(Cycle slot, const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
    if (!warmup_latched_ && slot >= warmup_until_) {
      counts_at_warmup_ = counts_;
      warmup_latched_ = true;
    }
    do_step(slot, arrivals);
  }

  /// Cells still buffered (for conservation checks).
  virtual std::uint64_t resident() const = 0;

  virtual const char* kind() const = 0;

  const FlowCounts& counts() const { return counts_; }

  /// Flow counters windowed to the post-warmup phase (the same window
  /// LatencyStats measures over). Zero if the run never reached warmup.
  FlowCounts measured_counts() const {
    if (!warmup_latched_) return FlowCounts{};
    FlowCounts w;
    w.injected = counts_.injected - counts_at_warmup_.injected;
    w.delivered = counts_.delivered - counts_at_warmup_.delivered;
    w.dropped = counts_.dropped - counts_at_warmup_.dropped;
    return w;
  }

  Cycle warmup_until() const { return warmup_until_; }

  LatencyStats& latency() { return latency_; }
  const LatencyStats& latency() const { return latency_; }
  void set_warmup(Cycle until) {
    latency_.set_warmup(until);
    warmup_until_ = until;
    warmup_latched_ = false;
  }

 protected:
  /// Model-specific slot processing; called via the public step() wrapper.
  virtual void do_step(Cycle slot,
                       const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) = 0;

  void on_injected() { ++counts_.injected; }
  void on_dropped() { ++counts_.dropped; }
  void on_delivered(Cycle slot, const SlotCell& c) {
    ++counts_.delivered;
    latency_.record(c.injected, slot);
  }

  unsigned n_;
  FlowCounts counts_;
  LatencyStats latency_;

 private:
  FlowCounts counts_at_warmup_;
  Cycle warmup_until_ = 0;
  bool warmup_latched_ = false;
};

/// Drive `model` with `traffic` for `slots` slots (plus a drain phase for
/// unbounded-buffer latency runs is unnecessary: steady-state measurements
/// ignore residents). Sets the model's warmup horizon to `warmup` slots.
/// Under PMSB_CHECK=1 a SharedBufferModel is audited every slot for
/// conservation, occupancy, and drop-attribution invariants.
void run_slot_sim(SlotModel& model, SlotTraffic& traffic, Cycle slots, Cycle warmup);

/// Measured normalized output throughput of a finished run: post-warmup
/// deliveries over post-warmup slots, matching the window LatencyStats
/// filters to (whole-run before the warmup-window fix).
double measured_throughput(const SlotModel& model, Cycle slots);

}  // namespace pmsb
