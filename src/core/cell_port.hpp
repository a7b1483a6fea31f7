// The link contract of the word-level cell switches, in one place.
//
// A link carries one Flit per cycle (sim/wire.hpp). A cell is a head word
// (sop) followed by its L-1 body words in consecutive cycles, with no gap
// (common/cell.hpp; DESIGN.md section 2, "Real link PHYs"). CellRx is the
// one receiver of that contract: every switch input, every CellSink and
// fabric::PortBridge run their link through one, so the three framing
// checks -- a body word with no head, a head inside a cell, a gap inside a
// cell -- are made here and nowhere else. CellTx is
// the one transmitter of a stored cell: the switch outputs that relay
// buffered words (WideMemorySwitch, PrizmaSwitch, CrosspointQueuedSwitch,
// FastSwitch) and PortBridge drive their link through one, so a cell always
// leaves as a head plus L-1 body words with no gap. (PipelinedSwitch and
// DualPipelinedSwitch drive their links from the output register row, and
// CellSource computes its words as it sends them.)
//
// CellSwitch is the shell shared by the six word-level switch models
// (PipelinedSwitch, DualPipelinedSwitch, FastSwitch, WideMemorySwitch,
// PrizmaSwitch, CrosspointQueuedSwitch): the n input and n output wires, one
// CellRx per input, the EventHub and the SwitchStats. A model keeps only
// what differs -- where word k of a cell goes and what a head decides -- so
// harnesses (Scoreboard, fabric::CellNode) can hold any of them as a
// CellSwitch&. It declares no virtual function of its own: a model's
// per-word path calls the inline CellRx::take directly. The other shared
// parts sit beside it: the ready-to-depart lists in core/out_queues.hpp and
// the input-latch write window in core/latch_window.hpp.

#pragma once

#include <cstdint>
#include <vector>

#include "common/cell.hpp"
#include "common/util.hpp"
#include "core/event_hub.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"

namespace pmsb {

/// Aggregate run statistics of one switch instance.
struct SwitchStats {
  std::uint64_t heads_seen = 0;       ///< Cells whose head arrived.
  std::uint64_t accepted = 0;         ///< Cells granted a write wave.
  std::uint64_t dropped_no_addr = 0;
  std::uint64_t dropped_no_slot = 0;
  std::uint64_t dropped_out_limit = 0;
  std::uint64_t read_grants = 0;      ///< Cells granted a read wave (departures).
  std::uint64_t cut_through_cells = 0;///< Departure initiated before tail arrival.
  std::uint64_t snoop_cells = 0;      ///< Same-cycle write+read co-grants.
  std::uint64_t write_initiations = 0;
  std::uint64_t read_initiations = 0;
  std::uint64_t snoop_initiations = 0;
  std::uint64_t idle_cycles = 0;      ///< Cycles with no stage-0 initiation.
  std::uint64_t read_stall_cycles = 0;///< Cycles with queued cells but no read wave.
  std::uint64_t cycles = 0;

  std::uint64_t dropped() const {
    return dropped_no_addr + dropped_no_slot + dropped_out_limit;
  }
};

/// What one cycle's link word was to a CellRx.
enum class RxWord : std::uint8_t {
  kIdle,  ///< No word, and no cell in progress.
  kHead,  ///< A head word: dest() and a0() now describe the new cell.
  kBody,  ///< Body word number phase() of the cell in progress.
};

/// Receiver of one link: frames its words into cells and aborts on any
/// violation of the link contract (see file comment).
class CellRx {
 public:
  static constexpr const char* kBodyWithoutHead = "link framing: body word with no head";
  static constexpr const char* kHeadInsideCell = "link framing: head word inside a cell";
  static constexpr const char* kGapInsideCell = "link framing: gap inside a cell";

  /// Frames cells of `fmt`. A head whose destination field is not below
  /// `n_dest` aborts; 0 accepts every destination (receivers that do not
  /// route on the field).
  explicit CellRx(const CellFormat& fmt, unsigned n_dest = 0)
      : fmt_(fmt), max_dest_(n_dest == 0 ? ~0u : n_dest - 1) {}

  /// Take the word on the link during cycle t.
  RxWord take(const Flit& f, Cycle t) {
    if (!mid_cell_) {
      if (!f.valid) return RxWord::kIdle;
      PMSB_CHECK(f.sop, kBodyWithoutHead);
      dest_ = decode_dest(f.data, fmt_);
      PMSB_CHECK(dest_ <= max_dest_, "destination out of range");
      a0_ = t;
      phase_ = 0;
      mid_cell_ = fmt_.length_words > 1;
      return RxWord::kHead;
    }
    PMSB_CHECK(f.valid, kGapInsideCell);
    PMSB_CHECK(!f.sop, kHeadInsideCell);
    mid_cell_ = ++phase_ + 1 != fmt_.length_words;
    return RxWord::kBody;
  }

  /// Index in its cell of the last word taken (0 = the head).
  unsigned phase() const { return phase_; }
  /// Destination field of the current (or last) cell's head.
  unsigned dest() const { return dest_; }
  /// Cycle the current (or last) cell's head was on the link.
  Cycle a0() const { return a0_; }
  /// More words of the current cell are due.
  bool mid_cell() const { return mid_cell_; }
  /// After a take() that returned a word: that word ends its cell.
  bool ends_cell() const { return !mid_cell_; }

 private:
  CellFormat fmt_;
  unsigned max_dest_;
  bool mid_cell_ = false;
  unsigned phase_ = 0;
  unsigned dest_ = 0;
  Cycle a0_ = 0;
};

/// Transmitter of one link: sends a stored cell's L words on consecutive
/// cycles, sop on the head only. Each word is read from the cell when it is
/// driven, so the cell may still be filling behind the transmitter
/// (cut-through); it must stay in place until the last word is out.
class CellTx {
 public:
  static constexpr const char* kStartWhileBusy = "cell transmitter started mid-cell";

  explicit CellTx(unsigned length_words) : length_(length_words) {}

  /// Send the L words at `cell`, the first on the next drive().
  void start(const Word* cell) {
    PMSB_CHECK(!busy(), kStartWhileBusy);
    cell_ = cell;
    phase_ = 0;
  }

  /// Drive cycle t's word onto `link`. Returns true if it was the last
  /// word of the cell; the transmitter is then idle.
  bool drive(WireLink& link, Cycle t) {
    PMSB_CHECK(busy(), "cell transmitter driven while idle");
    link.drive_next(t, Flit{true, phase_ == 0, cell_[phase_]});
    if (++phase_ != length_) return false;
    cell_ = nullptr;
    return true;
  }

  /// A cell is in progress.
  bool busy() const { return cell_ != nullptr; }
  /// Index in its cell of the word the next drive() sends.
  unsigned phase() const { return phase_; }

 private:
  const Word* cell_ = nullptr;
  unsigned length_;
  unsigned phase_ = 0;
};

/// The shell of an n x n word-level cell switch (see file comment).
class CellSwitch : public Component {
 public:
  WireLink& in_link(unsigned i) { return in_links_.at(i); }
  WireLink& out_link(unsigned o) { return out_links_.at(o); }

  /// Multi-subscriber event fan-out: observers call
  /// `events().subscribe(SwitchEvents{...})` and hold the returned
  /// Subscription for as long as they want the callbacks.
  EventHub& events() { return events_; }
  const EventHub& events() const { return events_; }

  const SwitchStats& stats() const { return stats_; }

 protected:
  /// `fmt` is the cell format on every link; heads must name one of the
  /// `n_ports` outputs.
  CellSwitch(unsigned n_ports, const CellFormat& fmt)
      : in_links_(n_ports), out_links_(n_ports), rx_(n_ports, CellRx(fmt, n_ports)) {}

  /// No wire carries a word during cycle t or has one driven for t+1.
  bool links_idle(Cycle t) const {
    for (const WireLink& l : in_links_)
      if (!l.idle(t)) return false;
    for (const WireLink& l : out_links_)
      if (!l.idle(t)) return false;
    return true;
  }
  /// Some input is between the head and the tail of a cell.
  bool any_mid_cell() const {
    for (const CellRx& r : rx_)
      if (r.mid_cell()) return true;
    return false;
  }

  std::vector<WireLink> in_links_;
  std::vector<WireLink> out_links_;
  std::vector<CellRx> rx_;  ///< One per input.
  EventHub events_;
  SwitchStats stats_;
};

}  // namespace pmsb
