// The pipelined memory proper (figures 4, 5, 7): S single-ported SRAM
// stages, the control-signal pipeline, and the address path's activity
// under both organizations of figure 7 (per-stage decoders, and the
// decoded-address pipeline of figure 7b).
//
// Wave datapath. One wave is initiated per cycle at stage 0, and its whole
// path is fixed from then on (sections 3.2-3.3): word k meets stage k at
// t0+k; one initiation per cycle keeps two waves off one stage in a cycle;
// and waves on one address keep their initiation order at every stage,
// since a later wave trails an earlier one by at least a cycle everywhere.
// So the memory is modelled per wave, not per bank. Each buffer address owns
// one contiguous row of S words, cells_[addr * S + s], and the waves in
// flight are the control ring CtrlPipeline already keeps. exec_cycle()
// moves each in-flight wave's one word for this cycle: a write stores
// IR[in][s] into its cell, and a read or snoop loads OR[s] from the cell
// (after the write, so a snoop sees the bus). A write goes straight into
// the cell with no staged commit: the only access that could observe the
// difference is another wave at the same stage in the same cycle, and
// there is none. A read followed by a re-allocating write to the same
// address (the release at read initiation, DESIGN.md section 4) reaches
// every stage a cycle ahead of the write, so it still loads the old word.
//
// The figure-7 counters are derived per wave instead of being counted per
// stage access. bank(s) counts the waves of each kind, less the in-flight
// ones that have not yet accessed stage s. The two address-path
// organizations are functionally identical (section 4.3), so one run counts
// both: a figure-7a decode is one per stage access, a figure-7b decode one
// per wave, and a 7b one-hot register transfer follows every
// control-register transfer.
//
// The stage walk this replaced -- S SramBanks, an AddressPath of each
// figure-7 organization and their audit -- is check::StageWalkOracle (check/stage_walk.hpp). It is built
// only when checking is on (PMSB_CHECK=1, or attach_oracle(), which
// check::differential calls); it then runs beside the wave model every
// cycle and compares each output-row load, each word a wave moved and
// every counter. There is one datapath: the oracle only checks it.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/input_latches.hpp"
#include "core/output_row.hpp"
#include "rtl/ctrl_pipeline.hpp"

namespace pmsb {

namespace check {
class StageWalkOracle;
}

/// Accesses one memory stage's bank has made (the ablation benches' count).
struct BankAccesses {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;  ///< Snooped writes included.

  std::uint64_t total_reads() const { return reads; }
  std::uint64_t total_writes() const { return writes; }
};

/// The address path's hardware activity under both figure-7 organizations,
/// counted from the same waves.
struct AddrPathCounts {
  std::uint64_t decodes_7a = 0;  ///< Figure 7(a): a decode per stage access.
  std::uint64_t decodes_7b = 0;  ///< Figure 7(b): one decode per wave, at stage 0.
  /// Figure 7(b)'s one-hot word-line register transfers (7a has none).
  std::uint64_t one_hot_reg_transfers = 0;
};

class PipelinedMemory {
 public:
  PipelinedMemory(unsigned stages, std::size_t words_per_stage, unsigned word_bits);
  ~PipelinedMemory();

  unsigned stages() const { return S_; }

  /// Initiate a wave at stage 0 for the current cycle (at most one/cycle).
  void initiate(const StageCtrl& c) {
    PMSB_CHECK(c.idle() || c.addr < words_, "SRAM access address out of range");
    PMSB_CHECK(!executed_, "wave initiated after the stages executed");
    ++initiations_;
    const auto op = static_cast<unsigned>(c.op);
    write_waves_ += op & 1;
    read_waves_ += op == static_cast<unsigned>(StageOp::kRead);
    ctrl_.initiate(c);
  }

  /// Lifetime count of stage-0 wave initiations (observability).
  std::uint64_t initiations() const { return initiations_; }

  /// Move every in-flight wave's word for the current cycle: writes take
  /// their data from the input latches; reads (and write snoops) load the
  /// output row, in ascending stage order.
  void exec_cycle(const InputLatches& ir, OutputRow& orow);

  /// Clock edge: shift the control pipeline.
  void tick();

  /// Any wave still travelling down the pipeline?
  bool busy() const { return ctrl_.busy(); }

  /// Accesses stage s's bank has made so far.
  BankAccesses bank(unsigned s) const;
  const CtrlPipeline& ctrl() const { return ctrl_; }
  AddrPathCounts addr_path() const;

  /// The word stage s holds at `addr` (testbench/debug only).
  Word peek(std::size_t addr, unsigned s) const;

  /// Run the stage-walk oracle beside this memory from now on (a no-op if it
  /// already runs). Only before the first initiation: the oracle starts
  /// from an empty memory.
  void attach_oracle();
  /// The oracle, or null when checking is off.
  const check::StageWalkOracle* oracle() const { return oracle_.get(); }

 private:
  friend struct PipelinedMemoryPeer;  ///< Test access (corrupts state in death tests).

  unsigned S_;
  std::size_t words_;
  unsigned word_bits_;
  std::vector<Word> cells_;  ///< cells_[addr * S_ + s]: stage s's word at addr.
  CtrlPipeline ctrl_;
  std::uint64_t initiations_ = 0;
  std::uint64_t write_waves_ = 0;  ///< kWrite and kWriteSnoop initiations.
  std::uint64_t read_waves_ = 0;   ///< kRead initiations.
  /// exec_cycle() ran this cycle: each in-flight wave has accessed its
  /// current stage. Cleared by tick().
  bool executed_ = false;
  std::unique_ptr<check::StageWalkOracle> oracle_;
};

}  // namespace pmsb
