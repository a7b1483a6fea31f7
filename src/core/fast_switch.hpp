// FastSwitch: a slot-granularity behavioural model of PipelinedSwitch.
//
// Same external contract as the cycle-accurate switch -- word-level WireLink
// ports with framed cells, the EventHub head/accept/drop/read-grant stream,
// SwitchStats, drained() -- but none of the internal machinery (no pipelined
// memory waves, no input-latch windows, no reservation table). Cells are
// reassembled per input, admitted or dropped at head arrival, queued per
// output in FIFO order, and relayed out as soon as the output link is free.
//
// Semantics contract (pinned by src/check/differential.cpp and the fuzz
// corpus, see `run()`'s "fast" model summary):
//  * Words pass through verbatim: delivered cells are bit-identical to the
//    injected ones (payload integrity, uid tags).
//  * Per-(input, output) delivery order equals the cycle-accurate switch's
//    exactly on drop-free runs (both preserve each pair's arrival order).
//  * Drops use the same classification (kOutputLimit at the per-output cap,
//    else kNoAddress when the shared buffer is full; never kNoSlot) and
//    match the cycle-accurate counts statistically, not per-cell. A cell
//    that meets a full buffer is held pending through the same latch window
//    [a0+1, a0+2n] the cycle-accurate switch gives it and admitted if space
//    frees in time — without this grace period the model over-drops on
//    bursts near capacity (found by the fuzz corpus).
//  * Timing is approximate but causal: a relay never emits a word before
//    the cycle after that word arrived (cut-through shape), and an output
//    transmits at most one cell per L cycles.
//
// Intended use: cold nodes of a fabric::Fabric (FabricConfig::fast_node)
// and fast load sweeps where per-wave accuracy is not needed.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fifo.hpp"
#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"

namespace pmsb {

class FastSwitch final : public CellSwitch {
 public:
  explicit FastSwitch(const SwitchConfig& cfg);

  const SwitchConfig& config() const { return cfg_; }

  /// Register occupancy gauges under `prefix.`-qualified names.
  void register_metrics(obs::MetricsRegistry& m, const std::string& prefix = "fast_switch");

  // Component interface.
  void eval(Cycle t) override;
  /// Every state change happens in eval(), and the wires carry no edge.
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  bool is_quiescent(Cycle t) const override;
  void skip(Cycle t, Cycle n) override;
  std::string name() const override { return "fast_switch"; }

  /// Buffer occupancy in cells (the behavioural model has no segments).
  std::uint32_t buffer_in_use() const { return resident_; }
  std::size_t queued_cells() const {
    std::size_t n = 0;
    for (const auto& q : oq_) n += q.size();
    return n;
  }

  /// True once no cell is arriving, buffered, queued, or transmitting.
  bool drained() const;

 private:
  static constexpr std::uint32_t kNoCell = ~0u;

  /// One cell buffer. Shared between its input (still filling it) and its
  /// pending slot, output queue or transmitter (relaying it) during
  /// cut-through; it returns to the free list when both have let go.
  struct Cell {
    unsigned input = 0;
    unsigned dest = 0;
    Cycle a0 = 0;           ///< Head-arrival cycle.
    unsigned filled = 0;    ///< Words latched so far.
    unsigned refs = 0;      ///< Holders: the filling input, and the cell's owner.
    Word* words = nullptr;  ///< L_ words in a block of word_blocks_.
  };
  /// Cells added to the pool per growth step.
  static constexpr unsigned kPoolChunk = 8;

  void admit_or_expire_pending(Cycle t);
  void process_arrival(unsigned i, Cycle t);
  void run_output(unsigned o, Cycle t);
  /// A free buffer, held by its filling input and its owner (see Cell).
  std::uint32_t take_cell();
  /// Add kPoolChunk free cells to the pool.
  void grow_pool();
  /// Drop the holder's reference `c` and clear it.
  void release_cell(std::uint32_t& c) {
    if (--cells_[c].refs == 0) free_cells_.push_back(c);
    c = kNoCell;
  }

  SwitchConfig cfg_;
  unsigned L_;               ///< Words per cell.
  unsigned window_;          ///< Latch-window length (2n, = cfg.stages()).
  unsigned capacity_cells_;  ///< Shared-buffer capacity in cells.

  /// Cell buffers, grown kPoolChunk at a time to the peak number in use.
  /// Their words live in word_blocks_, which never move, so growing cells_
  /// leaves the words a transmitter is reading in place.
  std::vector<Cell> cells_;
  std::vector<std::unique_ptr<Word[]>> word_blocks_;  ///< kPoolChunk cells' words each.
  std::vector<std::uint32_t> free_cells_;
  /// Per input: the cell its words fill; kNoCell while swallowing a dropped
  /// cell's body.
  std::vector<std::uint32_t> filling_;
  /// Per input: a head that saw a full buffer, waiting out its latch window
  /// [a0+1, a0+window_] for space to free (admitted then) or expiry
  /// (dropped kNoAddress, like the cycle-accurate addr-starved case); or
  /// kNoCell.
  std::vector<std::uint32_t> pending_;
  std::vector<Fifo<std::uint32_t>> oq_;  ///< Accepted cells awaiting relay.
  std::vector<CellTx> tx_;
  std::vector<std::uint32_t> tx_cell_;  ///< Per output: the cell tx_ sends.
  std::uint32_t resident_ = 0;          ///< Cells owning buffer space.
};

}  // namespace pmsb
