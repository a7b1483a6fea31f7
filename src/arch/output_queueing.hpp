// Output queueing (figure 2, left): each output owns a FIFO that can accept
// cells from all inputs simultaneously in one slot (an n-write-port buffer).
// Optimal link utilization; buffer memory is partitioned per output, so it
// needs more total space than a shared buffer for equal loss [HlKa88].

#pragma once

#include "arch/slot_sim.hpp"

namespace pmsb {

class OutputQueueing : public SlotModel {
 public:
  /// capacity = cells per output FIFO; 0 = unbounded.
  OutputQueueing(unsigned n, std::size_t capacity);

  void do_step(Cycle slot, const SlotArrivals& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "output queueing"; }

 private:
  std::size_t capacity_;
  std::vector<Fifo<SlotCell>> queues_;
  PortSet backlogged_;  ///< Outputs whose queue is non-empty.
};

}  // namespace pmsb
