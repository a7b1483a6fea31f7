#include "rtl/ctrl_pipeline.hpp"

namespace pmsb {

const char* to_string(StageOp op) {
  switch (op) {
    case StageOp::kNone: return "none";
    case StageOp::kWrite: return "write";
    case StageOp::kRead: return "read";
    case StageOp::kWriteSnoop: return "write+snoop";
  }
  return "?";
}

CtrlPipeline::CtrlPipeline(unsigned stages) : stages_(stages), ring_(stages) {
  PMSB_CHECK(stages >= 1, "control pipeline needs at least one stage");
}

void CtrlPipeline::initiate(const StageCtrl& c) {
  PMSB_CHECK(!injected_this_cycle_, "two wave initiations in one cycle (M0 is single-ported)");
  ring_[phys(0)] = c;  // Idle: cleared by the previous tick().
  if (!c.idle()) ++active_;
  injected_this_cycle_ = true;
}

void CtrlPipeline::tick() {
  // Every non-idle stage but the last moves into its pipeline register; the
  // last stage's control retires (its stage already executed).
  StageCtrl& last = ring_[phys(stages_ - 1)];
  const unsigned retiring = last.idle() ? 0 : 1;
  ctrl_reg_transfers_ += active_ - retiring;
  active_ -= retiring;
  last = StageCtrl{};
  // Rotate: the cleared slot becomes stage 0's input for the next cycle.
  head_ = phys(stages_ - 1);
  injected_this_cycle_ = false;
}

}  // namespace pmsb
