// The pipelined memory proper (figures 4, 5, 7): S single-ported SRAM
// stages, the control-signal pipeline, and the address path (per-stage
// decoders or the decoded-address pipeline of figure 7b).
//
// One wave is initiated per cycle at stage 0; exec_cycle() then performs, at
// every stage s, whatever the control pipeline presents to it -- which is by
// construction the operation stage s-1 performed in the previous cycle.
//
// Activity-proportional cycle: a stage is busy only while a wave passes
// through it, so exec_cycle() visits only the stages the control pipeline
// lists as in flight (CtrlPipeline::for_each_active, ascending stage order)
// and tick() clocks only the banks those stages accessed. An idle stage costs
// nothing. The figure-7a/7b idle-stage check keeps its full strength as a
// count: every visited stage must hold a valid word line (active is a subset
// of valid), and after the walk the number of valid word-line registers must
// equal the number of active stages, so the two sets are equal. Under
// PMSB_CHECK=1 every cycle also starts by recounting the control ring and
// the word-line flags from the underlying arrays and by checking that the
// sparse tick left no bank touched.
//
// Each visited stage costs a few loads and stores and no data-dependent
// branch: the op's bits give the access kind (bit 0 writes the bank, bit 1
// loads OR[s]), so the stage makes one SramBank::access and one
// OutputRow::load_if whatever its operation, and its address comes from
// its word-line register without a scan.

#pragma once

#include <cstdint>
#include <vector>

#include "core/input_latches.hpp"
#include "core/output_row.hpp"
#include "rtl/addr_decoder.hpp"
#include "rtl/ctrl_pipeline.hpp"
#include "rtl/sram_bank.hpp"

namespace pmsb {

class PipelinedMemory {
 public:
  PipelinedMemory(unsigned stages, std::size_t words_per_stage, unsigned word_bits,
                  AddrPathMode addr_mode = AddrPathMode::kDecodedPipeline);

  unsigned stages() const { return static_cast<unsigned>(banks_.size()); }

  /// Initiate a wave at stage 0 for the current cycle (at most one/cycle).
  void initiate(const StageCtrl& c) {
    ++initiations_;
    ctrl_.initiate(c);
  }

  /// Lifetime count of stage-0 wave initiations (observability).
  std::uint64_t initiations() const { return initiations_; }

  /// Execute every active stage for the current cycle: writes take their
  /// data from the input latches; reads (and write snoops) load the output
  /// row, in ascending stage order.
  void exec_cycle(const InputLatches& ir, OutputRow& orow);

  /// Clock edge: commit and reopen the banks this cycle's waves touched,
  /// then shift the control and word-line pipelines.
  void tick();

  /// Any wave still travelling down the pipeline?
  bool busy() const { return ctrl_.busy(); }

  const SramBank& bank(unsigned s) const { return banks_.at(s); }
  const CtrlPipeline& ctrl() const { return ctrl_; }
  const AddressPath& addr_path() const { return addr_path_; }

 private:
  friend struct PipelinedMemoryPeer;  ///< Test access (touches banks in death tests).

  /// Checked mode, at the start of a cycle: recount the running state from
  /// the underlying arrays; every bank must be untouched.
  void audit() const;

  std::vector<SramBank> banks_;
  CtrlPipeline ctrl_;
  AddressPath addr_path_;
  std::uint64_t initiations_ = 0;
  bool audit_;  ///< check::env_enabled() at construction.
};

}  // namespace pmsb
