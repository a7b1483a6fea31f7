// Cycle-accurate wide-memory shared-buffer switch: the figure 3 baseline
// (the organization of the authors' earlier design [KaSC91]).
//
// One RAM of width L*w bits (a whole cell per access), one access per cycle.
// Differences from the pipelined memory, all of which this model exhibits:
//
//  * Input *double buffering* is required: a cell can be written to memory
//    only after it has fully assembled in the fill row; it then moves to a
//    staging row to wait for a free memory cycle while the fill row receives
//    the next cell. If the staging row is still occupied when the next cell
//    completes, the input overruns and the cell is lost.
//  * Cut-through needs extra datapath (tristate drivers, bypass buses, and
//    an output crossbar) and -- as the paper notes -- cannot be initiated in
//    the window between the fill row and the memory write: here it can only
//    be set up at head arrival, when the output is already idle. A cell that
//    misses that single opportunity is stored and forwarded in full.
//  * Output double buffering (a [KaSC91] feature): the next cell can be read
//    from memory while the current one shifts out, keeping output links
//    saturated.
//
// The peripheral-register and crossbar inventory implied by this datapath is
// what the section 5.2 area model charges the wide organization for.

#pragma once

#include <cstdint>
#include <vector>

#include "core/arbiter.hpp"
#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "core/free_list.hpp"
#include "core/out_queues.hpp"

namespace pmsb {

class WideMemorySwitch : public CellSwitch {
 public:
  /// Uses the same SwitchConfig geometry; cell_words must equal stages()
  /// (one cell per wide word -- the [KaSC91] arrangement).
  explicit WideMemorySwitch(const SwitchConfig& cfg);

  const SwitchConfig& config() const { return cfg_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  std::string name() const override { return "wide_memory_switch"; }

  bool drained() const;

  /// Cells that used the bypass (cut-through) crossbar.
  std::uint64_t bypass_cells() const { return stats_.cut_through_cells; }

 private:
  struct InPort {
    // Fill row (assembling from the link).
    std::vector<Word> fill;
    bool bypassing = false;  ///< This arriving cell cuts through directly.

    // Staging row (assembled, waiting for a memory write slot).
    bool staged_valid = false;
    unsigned staged_dest = 0;
    Cycle staged_a0 = 0;
    std::vector<Word> staged;
  };
  struct OutPort {
    // Shift row currently driving the link, through the transmitter.
    std::vector<Word> shift;
    CellTx tx;
    // Second row: the next cell, already read from memory.
    bool next_valid = false;
    std::vector<Word> next;
    // Bypass (cut-through) stream feeding this output directly.
    int bypass_from = -1;  ///< Input index, or -1.
    Flit bypass_reg{};     ///< Crossbar register stage of the bypass path.
  };
  struct QueuedCell {
    std::uint32_t addr;
    unsigned input;
    Cycle a0;
    Cycle stored_at;
  };

  void arbitrate_memory(Cycle t);
  void run_outputs(Cycle t);
  void accept_arrivals(Cycle t);

  SwitchConfig cfg_;

  std::vector<std::vector<Word>> wide_ram_;  ///< [addr][0..L-1]
  bool ram_port_used_ = false;               ///< One access per cycle.
  FreeList free_;
  OutQueues<QueuedCell> oq_;  ///< Per output.
  RoundRobin rr_read_;
  RoundRobin rr_write_;

  std::vector<InPort> in_;
  std::vector<OutPort> out_;
};

}  // namespace pmsb
