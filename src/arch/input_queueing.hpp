// FIFO input queueing (figure 1, left): one FIFO per input, head-of-line
// packets contend for outputs, random winner per output [KaHM87]. Suffers
// head-of-line blocking; saturates near 2 - sqrt(2) ~ 0.586 of link capacity
// for large n under uniform traffic.

#pragma once

#include "arch/slot_sim.hpp"

namespace pmsb {

class InputQueueingFifo : public SlotModel {
 public:
  /// capacity = cells per input FIFO; 0 = unbounded.
  InputQueueingFifo(unsigned n, std::size_t capacity, Rng rng);

  void do_step(Cycle slot, const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "input-queueing (FIFO)"; }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<Fifo<SlotCell>> queues_;
  std::vector<unsigned> contenders_;  // scratch
  std::vector<int> hol_snapshot_;     // scratch: HOL dest per input, -1 if idle
};

}  // namespace pmsb
