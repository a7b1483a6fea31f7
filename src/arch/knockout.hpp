// The Knockout switch [YeHA87] (cited in section 3.1: "the buffers in the
// 'Knockout Switch' use this technique, in an output queueing
// architecture"). Output queueing with a CONCENTRATOR: each output accepts
// at most L of the up-to-n cells that may arrive for it in one slot; the
// knockout tournament discards the excess fairly at random. L < n trades a
// bounded, load-independent knockout loss for an n:L reduction in the
// output buffer's write-port requirement -- the cheap-output-queueing trick
// the pipelined shared buffer competes with.

#pragma once

#include "arch/slot_sim.hpp"

namespace pmsb {

class KnockoutSwitch : public SlotModel {
 public:
  /// `concentration` = L (1..n); `capacity` = cells per output queue
  /// (0 = unbounded).
  KnockoutSwitch(unsigned n, unsigned concentration, std::size_t capacity, Rng rng);

  void do_step(Cycle slot, const SlotArrivals& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "knockout"; }

  std::uint64_t knockout_losses() const { return knockout_losses_; }

 private:
  unsigned l_;
  std::size_t capacity_;
  Rng rng_;
  std::vector<Fifo<SlotCell>> queues_;
  std::vector<std::vector<SlotCell>> per_output_;  // scratch
  std::uint64_t knockout_losses_ = 0;
};

}  // namespace pmsb
