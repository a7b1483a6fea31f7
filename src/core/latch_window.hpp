// The write window of the input latches (section 3.2), shared by
// PipelinedSwitch (S = 2n stages) and DualPipelinedSwitch (section 3.5,
// S = n per group). Word k of a cell on input i is latched into
// IR[i][k mod S], so a head that arrived during a0 must get its write wave
// in [a0+1, a0+S], before the row is reused; until then it is pending. A
// cell still pending at a0+S is lost: kNoAddress if the buffer was full
// during any cycle of its window, else kNoSlot (impossible for
// single-segment cells -- DESIGN.md invariant 2). The switch decides only
// when a pending cell is granted. Header-only: the per-word loop inlines it.

#pragma once

#include <cstdint>
#include <vector>

#include "core/cell_port.hpp"
#include "core/event_hub.hpp"
#include "core/input_latches.hpp"

namespace pmsb {

class LatchWindow {
 public:
  /// A head latched and waiting for its write wave (at most one per input).
  struct Pending {
    bool valid = false;
    Cycle a0 = 0;       ///< Cycle the head was on the link.
    unsigned dest = 0;  ///< Output the head names.
    /// The buffer was full during at least one cycle of the window (drop
    /// classification: buffer-full, not slot-miss).
    bool addr_starved = false;
  };

  LatchWindow(unsigned n_inputs, unsigned stages, unsigned word_bits)
      : ir_(n_inputs, stages, word_bits), stages_(stages), next_stage_(n_inputs),
        pending_(n_inputs) {}

  InputLatches& latches() { return ir_; }

  /// Latch the word input i's CellRx framed as `w` this cycle. Returns true
  /// on a head: the caller then opens its window or drops it.
  bool latch(unsigned i, RxWord w, Word data, Cycle t) {
    if (w == RxWord::kIdle) return false;
    unsigned& s = next_stage_[i];
    if (w == RxWord::kBody) {
      ir_.latch(i, s, data, t);
      s = s + 1 == stages_ ? 0 : s + 1;
      return false;
    }
    ir_.latch(i, 0, data, t);
    s = stages_ > 1 ? 1 : 0;
    PMSB_CHECK(!pending_[i].valid, "new head while the previous cell is unresolved");
    return true;
  }

  /// Open the window of the head latched on input i during a0.
  void open(unsigned i, Cycle a0, unsigned dest) { pending_[i] = Pending{true, a0, dest, false}; }
  const Pending& pending(unsigned i) const { return pending_[i]; }
  /// The pending cell of input i was granted its write wave.
  void close(unsigned i) { pending_[i].valid = false; }

  /// The buffer is full this cycle: every pending cell has lost its window
  /// guarantee, so an eventual drop is a buffer-full loss.
  void starve() {
    for (Pending& p : pending_)
      if (p.valid) p.addr_starved = true;
  }

  /// End the windows whose last cycle t passed without a grant: count each
  /// lost cell in `st`, publish it on `ev`, then call on_drop(input, why).
  template <typename OnDrop>
  void expire(Cycle t, SwitchStats& st, EventHub& ev, OnDrop&& on_drop) {
    for (unsigned i = 0; i < pending_.size(); ++i) {
      Pending& p = pending_[i];
      if (!p.valid) continue;
      const Cycle deadline = p.a0 + static_cast<Cycle>(stages_);
      PMSB_CHECK(t <= deadline, "pending write survived past its latch window");
      if (t < deadline) continue;
      const DropReason why = p.addr_starved ? DropReason::kNoAddress : DropReason::kNoSlot;
      ++(p.addr_starved ? st.dropped_no_addr : st.dropped_no_slot);
      ev.drop(i, p.a0, why);
      on_drop(i, why);
      p.valid = false;
    }
  }

  /// Cells latched but not yet accepted or dropped.
  unsigned pending_cells() const {
    unsigned c = 0;
    for (const Pending& p : pending_) c += p.valid ? 1 : 0;
    return c;
  }

 private:
  InputLatches ir_;
  unsigned stages_;
  std::vector<unsigned> next_stage_;  ///< Per input: latch of the next body word (wraps).
  std::vector<Pending> pending_;
};

}  // namespace pmsb
