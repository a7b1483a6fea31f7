// Cycle-accurate PRIZMA-style interleaved shared buffer (section 5.3,
// [DeEI95], [Turn93]): M independent memory banks, each holding exactly one
// cell; an n x M "router" crossbar steers each arriving word into its cell's
// bank, and an M x n "selector" crossbar steers read-out words to the
// outputs.
//
// Functionally this matches the shared buffer (full throughput, per-output
// FIFO, cut-through: a departure may trail an in-progress arrival by one
// cycle). Its cost is structural, which is what section 5.3 charges it for:
// the two crossbars scale with n*M instead of n*2n, and every bank needs its
// own address/selection circuitry. The banks are modelled with one read and
// one write port (1R1W) -- a *generous* assumption for the baseline; the
// pipelined memory needs only single-ported banks.

#pragma once

#include <cstdint>
#include <vector>

#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "core/free_list.hpp"
#include "core/out_queues.hpp"

namespace pmsb {

struct PrizmaConfig {
  unsigned n_ports = 4;
  unsigned word_bits = 16;
  unsigned cell_words = 8;
  unsigned n_banks = 64;  ///< M: shared-buffer capacity in cells.

  unsigned dest_bits() const { return bits_for(n_ports); }
  CellFormat cell_format() const { return CellFormat{word_bits, dest_bits(), cell_words}; }
  /// Non-throwing check with structured issues (see core/config.hpp).
  ConfigValidation check() const;
  /// Throws std::invalid_argument(check().summary()) on any issue.
  void validate() const;
};

class PrizmaSwitch : public CellSwitch {
 public:
  explicit PrizmaSwitch(const PrizmaConfig& cfg);

  const PrizmaConfig& config() const { return cfg_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  std::string name() const override { return "prizma_switch"; }

  bool drained() const;

 private:
  struct InPort {
    bool discarding = false;  ///< No bank was free: cell is being dropped.
    std::uint32_t bank = 0;
  };
  struct QueuedCell {
    std::uint32_t bank;
    unsigned input;
    Cycle a0;
  };
  struct OutPort {
    CellTx tx;  ///< Streams one bank through the selector crossbar.
    std::uint32_t bank = 0;
    Cycle a0 = 0;  ///< Head arrival of the cell streaming.
  };

  void serve_outputs(Cycle t);
  void accept_arrivals(Cycle t);

  PrizmaConfig cfg_;
  unsigned L_;

  std::vector<std::vector<Word>> banks_;  ///< [bank][word]
  FreeList free_banks_;
  OutQueues<QueuedCell> oq_;  ///< Per output.

  std::vector<InPort> in_;
  std::vector<OutPort> out_;
};

}  // namespace pmsb
