// The stage-walk oracle for the pipelined memory's wave datapath.
//
// PipelinedMemory moves each wave's words straight between the latches, one
// cell row per address and the output row (core/pipelined_memory.hpp). This
// is the model it replaced, kept as its checker: S single-ported SramBanks
// with staged writes that commit at the clock edge, and one AddressPath of
// each figure-7 organization -- per-stage decoders (7a) and the decoded-
// address pipeline (7b), which decodes, pipelines and re-checks every word
// line. Both paths see every wave; the banks are addressed by 7b's line.
// Every cycle it walks the stages the control pipeline drives, in
// ascending order, makes each stage's one bank access, and compares with
// what the wave model did:
//
//   * each output-row load: OR[s] must hold the bank's bus word, for the
//     wave's link, with sop on the head segment's stage 0;
//   * each word a wave moved: the wave model's cell must equal the bus word
//     (the written data for a write, the stored word for a read);
//   * every counter: each bank's reads and writes, and both figures' decode
//     operations and one-hot register transfers.
//
// It also keeps the stage walk's own checks: the single port per bank, a
// write width, a valid one-hot word line naming the control's address on
// every active stage and none on an idle one, and at the start of each
// cycle a recount of the control ring, the word-line registers and the
// banks the sparse tick must have reopened. A mismatch aborts.
//
// The memory builds the oracle only when checking is on (PMSB_CHECK=1 or
// PipelinedMemory::attach_oracle()), so an unchecked run allocates none of
// this.

#pragma once

#include <cstdint>
#include <vector>

#include "core/input_latches.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"
#include "rtl/addr_decoder.hpp"
#include "rtl/ctrl_pipeline.hpp"
#include "rtl/sram_bank.hpp"

namespace pmsb::check {

class StageWalkOracle {
 public:
  StageWalkOracle(unsigned stages, std::size_t words, unsigned word_bits);

  /// Start of a cycle: recount the control ring and the word-line registers
  /// from their arrays; every bank must have been reopened by the last tick.
  void audit(const CtrlPipeline& ctrl) const;

  /// After the wave model's exec_cycle(): walk the active stages and
  /// compare every load, moved word and counter with `mem`.
  void exec_and_compare(const PipelinedMemory& mem, const InputLatches& ir,
                        const OutputRow& orow);

  /// Clock edge, before the control pipeline shifts: commit and reopen the
  /// banks this cycle's waves touched, then shift the word lines.
  void tick(const CtrlPipeline& ctrl);

  const SramBank& bank(unsigned s) const { return banks_.at(s); }
  SramBank& bank(unsigned s) { return banks_.at(s); }
  /// Figure 7(a)'s per-stage decoders and 7(b)'s decoded-address pipeline.
  const AddressPath& path_7a() const { return path_7a_; }
  const AddressPath& path_7b() const { return path_7b_; }

 private:
  std::vector<SramBank> banks_;
  AddressPath path_7a_;
  AddressPath path_7b_;
};

}  // namespace pmsb::check
