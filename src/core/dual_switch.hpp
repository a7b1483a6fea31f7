// DualPipelinedSwitch: the half-quantum organization of section 3.5.
//
// "Consider a shared-buffer n x n switch with 2n pipelined memory stages...
//  when the packets are of size n words each... The shared buffer will
//  consist of two pipelined memories, with n stages each. Each packet is
//  stored into one or the other of these two memories. In each and every
//  cycle, one read operation of one outgoing packet is initiated from one of
//  the two memories -- whichever the desired packet happens to be in. In the
//  same cycle, one write operation of one incoming packet must also be
//  initiated; this will be initiated into the other one of the two
//  memories."
//
// Cells are exactly n words (one segment), so this variant sustains full
// line rate on all links with half the packet-size quantum of the single
// 2n-stage organization. Reads and writes use different memory groups in
// the same cycle, so neither group's single port is ever double-booked; the
// shared output register row still allows only one packet transmission to
// *start* per cycle. Same-cycle cut-through (write + snooping read) is
// possible when no regular read was granted that cycle (the snoop shares
// the write's bus, not a memory port, but it does occupy the output row).

#pragma once

#include <cstdint>
#include <vector>

#include "core/arbiter.hpp"
#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "core/free_list.hpp"
#include "core/latch_window.hpp"
#include "core/out_queues.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"

namespace pmsb {

struct DualSwitchConfig {
  unsigned n_ports = 4;
  unsigned word_bits = 16;
  unsigned capacity_segments_per_group = 128;  ///< Cells per memory group.
  bool cut_through = true;

  unsigned stages() const { return n_ports; }          ///< Per group.
  unsigned cell_words() const { return n_ports; }      ///< Half quantum.
  unsigned dest_bits() const { return bits_for(n_ports); }
  CellFormat cell_format() const { return CellFormat{word_bits, dest_bits(), cell_words()}; }
  /// Non-throwing check with structured issues (see core/config.hpp).
  ConfigValidation check() const;
  /// Throws std::invalid_argument(check().summary()) on any issue.
  void validate() const;
};

class DualPipelinedSwitch : public CellSwitch {
 public:
  explicit DualPipelinedSwitch(const DualSwitchConfig& cfg);

  const DualSwitchConfig& config() const { return cfg_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  std::string name() const override { return "dual_pipelined_switch"; }

  std::uint32_t buffer_in_use() const { return free_[0].in_use() + free_[1].in_use(); }
  bool drained() const;

  /// Check both memories against their stage-walk oracles every cycle.
  void attach_memory_oracle() {
    mem_[0].attach_oracle();
    mem_[1].attach_oracle();
  }

  /// Committed cells across all per-output lists (verification).
  std::size_t queued_cells() const { return queues_.total_size(); }

  /// Cells latched but not yet accepted or dropped (at most one per input).
  unsigned pending_cells() const { return window_.pending_cells(); }

  /// Cycles in which BOTH a read and a write wave were initiated (the
  /// section 3.5 claim: the organization supports 1 + 1 per cycle).
  std::uint64_t dual_initiation_cycles() const { return dual_cycles_; }

 private:
  struct DualCell {
    unsigned input;
    unsigned group;
    std::uint32_t addr;
    Cycle a0;
    Cycle t0;
  };

  /// Returns the group read from, or -1.
  int grant_read(Cycle t);
  void grant_write(Cycle t, int read_group);
  void process_arrivals(Cycle t);

  DualSwitchConfig cfg_;
  unsigned S_;  ///< Stages per group = n.

  PipelinedMemory mem_[2];
  LatchWindow window_;  ///< Input latch rows and pending heads.
  OutputRow orow_;
  FreeList free_[2];
  RoundRobin rr_read_;
  RoundRobin rr_write_;

  OutQueues<DualCell> queues_;  ///< Per output.
  std::vector<Cycle> next_read_ok_;

  std::uint64_t dual_cycles_ = 0;
};

}  // namespace pmsb
