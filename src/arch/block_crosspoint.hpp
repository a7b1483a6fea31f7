// Block-crosspoint buffering (section 2.2): "a number of shared buffers,
// each dedicated to a certain subset of incoming and outgoing links."
// Inputs and outputs are partitioned into g groups; block (gi, go) is a
// shared pool for cells travelling from input-group gi to output-group go.
// Throughput-per-buffer is 2n/g times lower than one shared buffer; space
// utilization sits between crosspoint and fully-shared. With g = 1 this IS
// the shared buffer; with g = n it degenerates to crosspoint queueing.

#pragma once

#include "arch/slot_sim.hpp"
#include "core/arbiter.hpp"

namespace pmsb {

class BlockCrosspoint : public SlotModel {
 public:
  /// `groups` must divide n; capacity = cells per block (0 = unbounded).
  BlockCrosspoint(unsigned n, unsigned groups, std::size_t capacity);

  void do_step(Cycle slot, const SlotArrivals& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "block-crosspoint"; }

  unsigned groups() const { return g_; }

 private:
  struct Block {
    std::vector<Fifo<SlotCell>> per_output;  ///< Indexed by global output.
    std::size_t resident = 0;
  };

  unsigned group_of(unsigned port) const { return port / (n_ / g_); }
  Block& block(unsigned gi, unsigned go) { return blocks_[static_cast<std::size_t>(gi) * g_ + go]; }

  unsigned g_;
  std::size_t capacity_;
  std::vector<Block> blocks_;
  std::vector<RoundRobin> out_rr_;  ///< Per output: RR over source groups.
};

}  // namespace pmsb
