// Crosspoint queueing (figure 1, right): one queue per (input, output) pair.
// Every output can always transmit if any of its column queues is non-empty,
// so link utilization is optimal -- at the cost of n^2 buffers with poor
// memory utilization (section 2.1).

#pragma once

#include "arch/slot_sim.hpp"
#include "core/arbiter.hpp"

namespace pmsb {

class CrosspointQueueing : public SlotModel {
 public:
  /// capacity = cells per crosspoint queue; 0 = unbounded.
  CrosspointQueueing(unsigned n, std::size_t capacity);

  void do_step(Cycle slot, const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "crosspoint queueing"; }

 private:
  Fifo<SlotCell>& q(unsigned i, unsigned o) {
    return queues_[static_cast<std::size_t>(i) * n_ + o];
  }

  std::size_t capacity_;
  std::vector<Fifo<SlotCell>> queues_;  ///< [i * n + o]
  std::vector<RoundRobin> column_rr_;   ///< Per-output service pointer.
};

}  // namespace pmsb
