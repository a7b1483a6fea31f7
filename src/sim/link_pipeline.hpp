// Link-wire pipelining (section 4.3, first "very-high-speed IC" option):
//
//   "the long lines carrying the input and output link data can be split in
//    two or more pipeline stages each. ... The net effect is that all packet
//    data are delayed by an equal number of cycles on their way from an
//    input to an output link, and thus the logic of the switch operation
//    remains unaffected."
//
// LinkPipeline inserts `stages` register stages between two WireLinks. A
// testbench that wraps every input and output link of a switch with a
// k-stage pipeline sees end-to-end latency shifted by exactly 2k cycles and
// no functional change -- asserted by tests/test_switch_properties.cpp.

#pragma once

#include <vector>

#include "sim/engine.hpp"
#include "sim/wire.hpp"

namespace pmsb {

class LinkPipeline : public Component {
 public:
  /// Forwards `from` to `to` through `stages` >= 1 register stages. (One
  /// stage reproduces a plain registered repeater: total wire delay becomes
  /// stages + 1 cycles including the destination's own input register.)
  LinkPipeline(WireLink* from, WireLink* to, unsigned stages)
      : from_(from), to_(to), regs_(stages) {
    PMSB_CHECK(from != nullptr && to != nullptr, "pipeline needs both endpoints");
    PMSB_CHECK(stages >= 1, "a zero-stage pipeline is just a wire");
  }

  void eval(Cycle t) override {
    // Drive the downstream wire from the last register, and sample the
    // upstream wire (two-phase: reads happen in eval, the shift commits at
    // the clock edge).
    if (regs_.back().valid) to_->drive_next(t, regs_.back());
    sampled_ = from_->now(t);
  }

  void commit(Cycle) override {
    for (std::size_t s = regs_.size(); s-- > 1;) regs_[s] = regs_[s - 1];
    regs_[0] = sampled_;
  }

  bool is_quiescent(Cycle t) const override {
    // Empty pipe and nothing arriving: eval would drive nothing and commit
    // would shift invalid flits into invalid slots. (sampled_ cannot hold a
    // stale valid flit here -- any valid sample was committed into regs_[0]
    // and would fail the register scan.)
    if (from_->now(t).valid) return false;
    for (const Flit& f : regs_) {
      if (f.valid) return false;
    }
    return true;
  }

  std::string name() const override { return "link_pipeline"; }

 private:
  WireLink* from_;
  WireLink* to_;
  std::vector<Flit> regs_;
  Flit sampled_;
};

}  // namespace pmsb
