// One directed inter-node link of the fabric: a single-writer single-reader
// ring that reproduces sim/link_pipeline.hpp's timing without sharing any
// mutable simulation object between tasks.
//
// A LinkPipeline with S register stages delivers the word on the upstream
// out-wire at cycle t onto the downstream in-wire at cycle t + S + 1. The
// fabric splits that wire at the register boundary: the producer records its
// out-wire value into slot (t mod size) during its eval of cycle t, and the
// consumer reads slot (t - S) during its eval of cycle t, then re-drives the
// node's in-wire for t + 1 -- the same S + 1 total, with the consumer playing
// the role of the last pipeline register.
//
// The ring is generic over its payload (Ring<T>): the cell fabrics carry
// whole-cell words (Channel = Ring<Flit>), the wormhole fabrics
// carry single flits with lane tags (Ring<WormFlit>) and, in the *reverse*
// direction of every data link, per-lane credit pulses (Ring<CreditPulse>).
// T needs a `valid` flag and a value-initialized state meaning "idle". The
// timing/visibility contract is payload-independent:
//
//  * Same task (lockstep chunks of k <= S cycles): every slot the reader
//    touches in a chunk was written in an earlier chunk (t_read - S <
//    chunk start), and the writer stays at least size - (k + S) > 0 slots
//    away from the oldest unread entry.
//
//  * Across tasks (credit backpressure): producer and consumer tasks
//    publish progress counters (cycles fully executed). The consumer reads
//    slot t - S only after observing producer_done > t - S, so the write
//    happens-before the read through the counter. The producer writes slot
//    t mod size only while t < consumer_done + capacity() - S (its write
//    credit), so the aliased slot t - capacity() was read strictly in the
//    consumer's past. Different threads therefore always address disjoint
//    slots. Wormhole credit rings are ordinary rings here: a credit link
//    v->u makes u a *downstream* of v in the dependency graph, so the same
//    two bounds cover both directions. See src/fabric/fabric.cpp and
//    DESIGN.md "Fabric & parallel simulation" / "Multistage wormhole
//    fabrics" for the full arguments.
//
// ChannelBase is the payload-erased face the fabric's idle skip uses
// (idle_at / clear_range apply to any payload type).

#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/cell.hpp"
#include "common/util.hpp"

namespace pmsb::fabric {

class ChannelBase {
 public:
  /// `delay` = the modelled LinkPipeline's register stages S (>= 1). Total
  /// out-wire to in-wire latency is delay + 1 (see file comment).
  explicit ChannelBase(unsigned delay) : delay_(delay) {
    PMSB_CHECK(delay >= 1, "fabric links need at least one register stage");
    std::size_t cap = 1;
    while (cap < 2 * static_cast<std::size_t>(delay) + 2) cap <<= 1;
    mask_ = cap - 1;
  }
  virtual ~ChannelBase() = default;

  unsigned delay() const { return delay_; }

  /// Ring slots. Across tasks, the write credit is capacity() - delay()
  /// cycles of producer lead over the consumer.
  std::size_t capacity() const { return mask_ + 1; }

  /// True when nothing is in flight at cycle T: every valid entry ever
  /// written was already delivered (read cycle last_valid_ + delay < T).
  /// Part of a fabric task's idle-skip predicate.
  bool idle_at(Cycle t) const {
    return last_valid_.load(std::memory_order_relaxed) + static_cast<Cycle>(delay_) < t;
  }

  /// Idle-skip compensation: stand in for the producer's suppressed
  /// write(t, invalid) calls for every cycle in [from, to), so old entries
  /// at (t mod size) cannot resurface after the jump.
  /// Bounded by the ring size (a longer window laps the ring and would
  /// rewrite the same slots). The caller holds write credit for the whole
  /// window, so these stores target slots the consumer is provably past.
  virtual void clear_range(Cycle from, Cycle to) = 0;

 protected:
  unsigned delay_;
  std::size_t mask_;
  std::atomic<Cycle> last_valid_{-1};  ///< Cycle of the newest valid entry.
};

template <typename T>
class Ring final : public ChannelBase {
 public:
  explicit Ring(unsigned delay) : ChannelBase(delay) { ring_.assign(capacity(), T{}); }

  /// Producer side: record the upstream out-wire's value during cycle t.
  /// Exactly one writer, exactly once per producer cycle.
  void write(Cycle t, const T& f) {
    ring_[static_cast<std::size_t>(t) & mask_] = f;
    // Monotonic high-water mark of valid traffic. Relaxed is enough: every
    // cross-thread read piggybacks on a stronger edge (the producer's
    // progress counter) that already orders this store.
    if (f.valid) last_valid_.store(t, std::memory_order_relaxed);
  }

  /// Consumer side: the entry that entered the channel `delay` cycles ago;
  /// idle while the pipe is still filling.
  const T& read(Cycle t) const {
    if (t < static_cast<Cycle>(delay_)) return kIdle;
    return ring_[static_cast<std::size_t>(t - delay_) & mask_];
  }

  void clear_range(Cycle from, Cycle to) override {
    const Cycle window = to - from;
    const std::size_t n = window >= static_cast<Cycle>(capacity())
                              ? capacity()
                              : static_cast<std::size_t>(window);
    for (std::size_t i = 0; i < n; ++i)
      ring_[static_cast<std::size_t>(from + static_cast<Cycle>(i)) & mask_] = T{};
  }

 private:
  inline static const T kIdle{};

  std::vector<T> ring_;
};

/// The cell fabrics' link ring: one switch-word Flit per cycle.
using Channel = Ring<Flit>;

}  // namespace pmsb::fabric
