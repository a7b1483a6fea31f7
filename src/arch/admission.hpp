// Pluggable admission policies for the slot-level shared buffer (section
// 2.2's statistical-multiplexing argument made concrete): the policy decides,
// per arriving cell, whether one output may claim another cell of the shared
// pool. Three reference points:
//
//  - StaticCapPolicy: fixed per-output share of the pool, the seed
//    behaviour ([DeEI95], [Koza91]) and the default.
//  - DynamicThresholdPolicy: classic Choudhury-Hahne Dynamic Threshold --
//    a queue may grow while it is shorter than alpha x (free pool), so
//    caps tighten as the pool fills and relax as it drains.
//  - QueueDelayPolicy: BShare-style (PAPERS.md) delay-driven sharing --
//    admit while the arriving cell's projected drain delay (queue length
//    over the output's measured drain rate) stays under a target, so slow
//    outputs get squeezed harder than fast ones at equal queue length.
//
// Policies see only aggregate state (dest, queue length, pool occupancy) and
// hold no cell references, so one policy object serves exactly one model.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

class AdmissionPolicy {
 public:
  /// How a rejection by this policy should be attributed in drop accounting.
  enum class RejectKind { kOutputCap, kPolicyReject };

  virtual ~AdmissionPolicy() = default;

  /// Called once by the owning model before any other hook.
  virtual void bind(unsigned n_outputs, std::size_t capacity) {
    (void)n_outputs;
    (void)capacity;
  }

  /// Called at the start of every slot, before any admission decision.
  virtual void on_slot(Cycle slot) { (void)slot; }

  /// May a cell destined to `dest` enter? `queue_len` is dest's current
  /// logical queue length, `resident` the pool occupancy. The caller has
  /// already rejected on a full pool; this is the sharing decision only.
  virtual bool admit(unsigned dest, std::size_t queue_len, std::size_t resident) const = 0;

  /// Called for every delivered cell (after the head of `dest` is sent).
  virtual void on_delivered(unsigned dest, Cycle slot) {
    (void)dest;
    (void)slot;
  }

  virtual const char* name() const = 0;

  virtual RejectKind reject_kind() const { return RejectKind::kPolicyReject; }

  /// Largest per-output queue length the policy can ever allow, if it
  /// implies a static bound; 0 = no static bound. Used by invariant checks.
  virtual std::size_t hard_queue_cap() const { return 0; }
};

/// Fixed per-output cap: admit while queue_len < limit (0 = no cap).
/// Bit-identical to the seed SharedBufferModel's out_queue_limit behaviour.
class StaticCapPolicy final : public AdmissionPolicy {
 public:
  explicit StaticCapPolicy(std::size_t limit) : limit_(limit) {}

  bool admit(unsigned, std::size_t queue_len, std::size_t) const override {
    return limit_ == 0 || queue_len < limit_;
  }
  const char* name() const override { return "static_cap"; }
  RejectKind reject_kind() const override { return RejectKind::kOutputCap; }
  std::size_t hard_queue_cap() const override { return limit_; }

  std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
};

/// Choudhury-Hahne Dynamic Threshold: admit while
/// queue_len < alpha x (capacity - resident). An unbounded pool
/// (capacity 0) always admits.
class DynamicThresholdPolicy final : public AdmissionPolicy {
 public:
  explicit DynamicThresholdPolicy(double alpha) : alpha_(alpha) {
    PMSB_CHECK(alpha > 0.0, "dynamic threshold alpha must be positive");
  }

  void bind(unsigned, std::size_t capacity) override { capacity_ = capacity; }

  bool admit(unsigned, std::size_t queue_len, std::size_t resident) const override {
    if (capacity_ == 0) return true;
    const std::size_t free_pool = capacity_ > resident ? capacity_ - resident : 0;
    return static_cast<double>(queue_len) < alpha_ * static_cast<double>(free_pool);
  }
  const char* name() const override { return "dynamic_threshold"; }

  double alpha() const { return alpha_; }
  /// The instantaneous cap DT implies at a given pool occupancy.
  double threshold(std::size_t resident) const {
    const std::size_t free_pool = capacity_ > resident ? capacity_ - resident : 0;
    return alpha_ * static_cast<double>(free_pool);
  }

 private:
  double alpha_;
  std::size_t capacity_ = 0;
};

/// BShare-style delay-driven admission: admit while the arriving cell's
/// projected drain delay -- queue_len divided by the output's drain rate
/// measured over a sliding window of `window` slots -- is at most
/// `max_delay_slots`. Integer arithmetic throughout, so decisions are
/// bit-deterministic. An empty queue always admits (the cell drains next
/// slot regardless of history).
class QueueDelayPolicy final : public AdmissionPolicy {
 public:
  explicit QueueDelayPolicy(Cycle max_delay_slots, unsigned window = 64)
      : max_delay_(max_delay_slots), window_(window) {
    PMSB_CHECK(max_delay_slots >= 0, "delay target must be non-negative");
    PMSB_CHECK(window > 0, "drain-rate window must be non-empty");
  }

  void bind(unsigned n_outputs, std::size_t) override {
    ring_.assign(static_cast<std::size_t>(n_outputs) * window_, 0);
    window_sum_.assign(n_outputs, 0);
  }

  void on_slot(Cycle slot) override {
    pos_ = static_cast<unsigned>(slot % window_);
    for (std::size_t o = 0; o < window_sum_.size(); ++o) {
      std::uint8_t& cell = ring_[o * window_ + pos_];
      window_sum_[o] -= cell;
      cell = 0;
    }
    if (slots_seen_ < window_) ++slots_seen_;
  }

  bool admit(unsigned dest, std::size_t queue_len, std::size_t) const override {
    if (queue_len == 0) return true;
    const std::uint64_t eff = slots_seen_ > 0 ? slots_seen_ : 1;
    const std::uint64_t drained =
        window_sum_[dest] > 0 ? static_cast<std::uint64_t>(window_sum_[dest]) : 1;
    const std::uint64_t projected = static_cast<std::uint64_t>(queue_len) * eff / drained;
    return projected <= static_cast<std::uint64_t>(max_delay_);
  }

  void on_delivered(unsigned dest, Cycle) override {
    ++ring_[dest * window_ + pos_];
    ++window_sum_[dest];
  }

  const char* name() const override { return "queue_delay"; }

  /// Drain rate >= measured rate implies projected >= queue_len, so an
  /// admitted cell always sees queue_len <= max_delay: the queue is
  /// statically bounded by max_delay + 1 after its own push.
  std::size_t hard_queue_cap() const override {
    return static_cast<std::size_t>(max_delay_) + 1;
  }

  unsigned window() const { return window_; }

 private:
  Cycle max_delay_;
  unsigned window_;
  unsigned pos_ = 0;
  unsigned slots_seen_ = 0;
  std::vector<std::uint8_t> ring_;       ///< [output][slot % window] deliveries.
  std::vector<std::uint32_t> window_sum_;  ///< Per-output sum over the ring.
};

}  // namespace pmsb
