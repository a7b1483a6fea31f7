// Input smoothing [HlKa88]: time is divided into frames of b slots. Each
// input buffers the cells arriving during a frame (up to b of them -- its
// smoothing buffer size). At the frame boundary all buffered cells are
// launched into an (n*b)-way space-division stage; each output can accept at
// most b cells per frame (it transmits one per slot of the next frame);
// cells beyond b for the same output in the same frame are lost.
//
// The paper quotes this architecture needing ~80 cells per input (1300
// total at 16x16) for 1e-3 loss at load 0.8, versus 5.4 per output shared --
// the motivating factor-15 gap of section 2.2.

#pragma once

#include "arch/slot_sim.hpp"

namespace pmsb {

class InputSmoothing : public SlotModel {
 public:
  /// frame = b: smoothing buffer per input, frame length, and per-output
  /// per-frame acceptance limit (all equal in the [HlKa88] construction).
  InputSmoothing(unsigned n, std::size_t frame, Rng rng);

  void do_step(Cycle slot, const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "input smoothing"; }

 private:
  void launch_frame(Cycle slot);

  std::size_t frame_;
  Rng rng_;
  Cycle slot_in_frame_ = 0;
  std::vector<std::vector<SlotCell>> smoothing_;   ///< Per input, current frame.
  std::vector<Fifo<SlotCell>> out_;                ///< Per output, being transmitted.
  std::vector<std::vector<SlotCell>> per_output_;  // scratch
};

}  // namespace pmsb
