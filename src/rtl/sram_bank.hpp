// One memory stage of the pipelined buffer: a single-ported SRAM bank.
//
// The entire pipelined-memory argument rests on each stage being a *plain
// single-ported* RAM (section 3.2): one read OR one write per cycle. The
// bank therefore asserts this port limit on every access -- any arbitration
// bug that would need a second port is caught immediately rather than
// silently simulated away.
//
// Read timing: `read()` during cycle t returns the committed array content
// (writes staged in cycle t commit at the end of t), i.e. the classic
// read-before-write SRAM. The paper's cut-through "snoop" (output register
// row captures the write-bus data while M0 is being written) is modelled by
// `write_snoop()`, which performs the single physical write access and also
// returns the bus data for the snooper.
//
// The access functions are defined here so the per-stage loop of
// PipelinedMemory::exec_cycle inlines them, port check included.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

class SramBank {
 public:
  /// `words` addressable words of `word_bits` bits each.
  SramBank(std::size_t words, unsigned word_bits);

  std::size_t size() const { return array_.size(); }
  unsigned word_bits() const { return word_bits_; }

  /// Single-port read access for this cycle.
  Word read(std::size_t addr) {
    PMSB_CHECK(addr < array_.size(), "SRAM read address out of range");
    claim_port();
    ++total_reads_;
    return array_[addr];
  }

  /// Single-port write access for this cycle; commits at tick().
  void write(std::size_t addr, Word data) {
    PMSB_CHECK(addr < array_.size(), "SRAM write address out of range");
    PMSB_CHECK((data & ~mask_) == 0, "SRAM write data wider than the bank");
    claim_port();
    ++total_writes_;
    write_pending_ = true;
    pend_addr_ = addr;
    pend_data_ = data;
  }

  /// Write access whose bus data is also captured by the output register row
  /// (automatic cut-through, section 3.3). One physical access.
  Word write_snoop(std::size_t addr, Word data) {
    write(addr, data);
    return data;  // The snooper sees the bus, not the array.
  }

  /// Clock edge: commit a staged write, reopen the port.
  void tick() {
    if (write_pending_) {
      array_[pend_addr_] = pend_data_;
      write_pending_ = false;
    }
    port_used_ = false;
  }

  /// True between an access and the next clock edge: the bank must be
  /// ticked this cycle (PipelinedMemory ticks only the banks its waves
  /// touched, and checks with this that it missed none).
  bool touched() const { return port_used_ || write_pending_; }

  /// Lifetime access statistics (for the ablation benches).
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_writes() const { return total_writes_; }

  /// Peek without using the port (testbench/debug only).
  Word debug_peek(std::size_t addr) const;

 private:
  void claim_port() {
    PMSB_CHECK(!port_used_,
               "single-ported SRAM bank accessed twice in one cycle "
               "(arbitration must initiate at most one wave per cycle)");
    port_used_ = true;
  }

  std::vector<Word> array_;
  unsigned word_bits_;
  Word mask_;

  bool port_used_ = false;
  bool write_pending_ = false;
  std::size_t pend_addr_ = 0;
  Word pend_data_ = 0;

  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
};

}  // namespace pmsb
