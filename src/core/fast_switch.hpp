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
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/event_hub.hpp"
#include "core/switch.hpp"  // SwitchStats
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"

namespace pmsb {

class FastSwitch final : public Component {
 public:
  explicit FastSwitch(const SwitchConfig& cfg);

  const SwitchConfig& config() const { return cfg_; }

  WireLink& in_link(unsigned i) { return in_links_.at(i); }
  WireLink& out_link(unsigned o) { return out_links_.at(o); }

  /// Multi-subscriber event fan-out (see core/event_hub.hpp).
  EventHub& events() { return events_; }
  const EventHub& events() const { return events_; }

  /// Register occupancy gauges under `prefix.`-qualified names.
  void register_metrics(obs::MetricsRegistry& m, const std::string& prefix = "fast_switch");

  // Component interface.
  void eval(Cycle t) override;
  void commit(Cycle t) override;
  bool is_quiescent(Cycle t) const override;
  void skip(Cycle t, Cycle n) override;
  std::string name() const override { return "fast_switch"; }

  const SwitchStats& stats() const { return stats_; }
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
  /// One buffered cell. Shared between the receive FSM (still filling it)
  /// and the transmit FSM (already relaying it) during cut-through.
  struct Cell {
    unsigned input = 0;
    unsigned dest = 0;
    Cycle a0 = 0;          ///< Head-arrival cycle.
    unsigned filled = 0;   ///< Words latched so far.
    std::vector<Word> words;
  };
  using CellPtr = std::shared_ptr<Cell>;

  struct RxFsm {
    bool receiving = false;
    unsigned phase = 0;  ///< Next word index to latch.
    CellPtr cell;        ///< Null while swallowing a dropped cell's body.
  };
  struct TxFsm {
    bool active = false;
    unsigned phase = 0;  ///< Next word index to drive.
    CellPtr cell;
  };

  /// A head that saw a full buffer, waiting out its latch window
  /// [a0+1, a0+window_] for space to free (admitted then) or expiry
  /// (dropped kNoAddress, like the cycle-accurate addr-starved case).
  struct PendingCell {
    bool valid = false;
    Cycle a0 = 0;
    unsigned dest = 0;
    CellPtr cell;
  };

  void admit_or_expire_pending(Cycle t);
  void process_arrival(unsigned i, Cycle t);
  void run_output(unsigned o, Cycle t);

  SwitchConfig cfg_;
  CellFormat fmt_;
  unsigned L_;               ///< Words per cell.
  unsigned window_;          ///< Latch-window length (2n, = cfg.stages()).
  unsigned capacity_cells_;  ///< Shared-buffer capacity in cells.

  std::vector<WireLink> in_links_;
  std::vector<WireLink> out_links_;
  std::vector<RxFsm> rx_;
  std::vector<TxFsm> tx_;
  std::vector<PendingCell> pending_;
  std::vector<std::deque<CellPtr>> oq_;  ///< Accepted cells awaiting relay.
  std::uint32_t resident_ = 0;           ///< Cells owning buffer space.

  EventHub events_;
  SwitchStats stats_;
};

}  // namespace pmsb
