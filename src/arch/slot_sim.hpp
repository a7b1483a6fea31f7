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
//
// A slot's arrivals reach a model as a SlotArrivals list
// (traffic/generators.hpp): one {input, dest} entry per arriving input, at
// most one per input, in strictly ascending input order. SlotTraffic::step()
// makes exactly the draws a per-input loop would and lists only the inputs
// that drew a cell, so a model that walks the list enqueues the same cells
// in the same order as one that tests every input.

#pragma once

#include <bit>
#include <cstdint>
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

/// A set of ports as 64-bit words: the outputs whose queue holds a cell.
/// for_each() visits the members in ascending port order, one countr_zero
/// per member, so a model delivers without testing every output.
class PortSet {
 public:
  explicit PortSet(unsigned n) : words_((n + 63) / 64, 0) {}

  void insert(unsigned p) { words_[p >> 6] |= std::uint64_t{1} << (p & 63); }
  /// Make p a member or not without a branch on `member`.
  void set(unsigned p, bool member) {
    std::uint64_t& w = words_[p >> 6];
    w = (w & ~(std::uint64_t{1} << (p & 63))) | (std::uint64_t{member} << (p & 63));
  }

  /// Calls f(p) for every member p in ascending order; f may set() p.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        f(static_cast<unsigned>(w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

class SlotModel {
 public:
  explicit SlotModel(unsigned n) : n_(n), latency_(0) {
    PMSB_CHECK(n > 0, "model needs at least one port");
  }
  virtual ~SlotModel() = default;

  unsigned ports() const { return n_; }

  /// Process one slot with its arrivals (one entry per arriving input, in
  /// ascending input order). Non-virtual: snapshots the flow counters the
  /// first time `slot` crosses the warmup horizon so measured_counts() can
  /// window them, then delegates to the model-specific do_step().
  void step(Cycle slot, const SlotArrivals& arrivals) {
    PMSB_CHECK(arrivals.ports() == n_, "arrival list sized for another port count");
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
  virtual void do_step(Cycle slot, const SlotArrivals& arrivals) = 0;

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
