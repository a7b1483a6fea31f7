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
// One access path: access(addr, is_write, data) serves reads, writes and
// snoops alike without branching on the kind. read(), write() and
// write_snoop() are thin wrappers over it. The write a cycle stages is held
// as one (address, data) pair; the array carries one spare word past its
// last address, and "no write pending" is the pair naming that spare word,
// so tick() commits unconditionally.
//
// The production memory (core/pipelined_memory.hpp) moves words per wave
// and runs no SramBank; the stage-walk oracle (check/stage_walk.hpp) runs S
// of them beside it when checking is on.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

class SramBank {
 public:
  /// `words` addressable words of `word_bits` bits each.
  SramBank(std::size_t words, unsigned word_bits);

  std::size_t size() const { return spare_; }
  unsigned word_bits() const { return word_bits_; }

  /// The single port's access for this cycle: a write (or snooped write)
  /// if `is_write`, staging `data` to commit at tick(), else a read. Returns
  /// what the bank drives out: the bus data for a write -- what a snooping
  /// output register captures -- and the committed array word for a read.
  /// `data` is ignored by a read.
  Word access(std::size_t addr, bool is_write, Word data) {
    // All ones for a write, zero for a read: the kind selects by masking, so
    // the compiler has no branch to make of it.
    const Word w = Word{0} - is_write;
    PMSB_CHECK(addr < spare_, "SRAM access address out of range");
    PMSB_CHECK((data & ~mask_ & w) == 0, "SRAM write data wider than the bank");
    claim_port();
    total_writes_ += is_write;
    total_reads_ += !is_write;
    pend_addr_ = spare_ ^ ((addr ^ spare_) & static_cast<std::size_t>(w));
    pend_data_ = data;
    return (data & w) | (array_[addr] & ~w);
  }

  /// Single-port read access for this cycle.
  Word read(std::size_t addr) { return access(addr, false, 0); }

  /// Single-port write access for this cycle; commits at tick().
  void write(std::size_t addr, Word data) { access(addr, true, data); }

  /// Write access whose bus data is also captured by the output register row
  /// (automatic cut-through, section 3.3). One physical access; the snooper
  /// sees the bus, not the array.
  Word write_snoop(std::size_t addr, Word data) { return access(addr, true, data); }

  /// Clock edge: commit the staged write (a cycle without one commits to
  /// the spare word), reopen the port.
  void tick() {
    array_[pend_addr_] = pend_data_;
    pend_addr_ = spare_;
    port_used_ = false;
  }

  /// True between an access and the next clock edge: the bank must be
  /// ticked this cycle (the stage walk ticks only the banks its waves
  /// touched, and checks with this that it missed none).
  bool touched() const { return port_used_ || pend_addr_ != spare_; }

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

  std::vector<Word> array_;  ///< The words, then the spare "no write" word.
  std::size_t spare_;        ///< Index of the spare word = addressable words.
  unsigned word_bits_;
  Word mask_;

  bool port_used_ = false;
  std::size_t pend_addr_;    ///< Staged write's address; spare_ if none.
  Word pend_data_ = 0;

  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
};

}  // namespace pmsb
