#include "rtl/ctrl_pipeline.hpp"

#include <bit>

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

CtrlPipeline::CtrlPipeline(unsigned stages)
    : stages_(stages),
      ring_(stages),
      waves_(std::bit_ceil(stages)),
      wave_mask_(std::bit_ceil(stages) - 1) {
  PMSB_CHECK(stages >= 1, "control pipeline needs at least one stage");
}

void CtrlPipeline::audit() const {
  unsigned non_idle = 0;
  for (const StageCtrl& c : ring_) non_idle += c.idle() ? 0 : 1;
  PMSB_CHECK(non_idle == active_,
             "control pipeline's running count of active stages diverged from its ring");
  unsigned prev_stage = stages_;
  for (unsigned k = 0; k < active_; ++k) {
    const unsigned p = waves_[(wave_head_ + k) & wave_mask_];
    PMSB_CHECK(p < stages_ && !ring_[p].idle(),
               "control pipeline's in-flight wave list names an idle stage");
    const unsigned s = p >= head_ ? p - head_ : p + stages_ - head_;
    PMSB_CHECK(s < prev_stage,
               "control pipeline's in-flight wave list is out of initiation order");
    prev_stage = s;
  }
}

}  // namespace pmsb
