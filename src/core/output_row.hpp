// The single shared row of output buffer registers (figure 4).
//
// "Figure 4 uses only one row of output buffer registers shared among all
//  outgoing links, with the restriction that no two outgoing links can
//  start sending out packets in the same cycle." (section 3.2)
//
// OR[s] is loaded at the end of the cycle in which stage s performs a read
// (or snoops a write bus), and drives the selected outgoing link during the
// following cycle. Because read waves advance one stage per cycle, each
// OR[s] value is consumed exactly one cycle after it is loaded; the class
// asserts that sharing discipline (one load per stage per cycle; one
// register driving a given link per cycle -- the latter via WireLink's
// single-driver check).
//
// Only the registers loaded this cycle are listed, in load order, so
// drive_links() and tick() cost one step per loaded register. A single
// memory loads in ascending stage order (its active-stage walk), so the
// links are driven in the order a full scan would use. Under PMSB_CHECK=1
// drive_links() recounts the list against the registers' valid flags.
//
// Every busy memory stage calls load_if() whatever its operation, so the
// stage walk has no branch on read versus write: a stage that loads nothing
// (a plain write) stores into one spare register past OR[S-1] and one spare
// list entry, both never counted. It must not store into OR[s] itself:
// DualPipelinedSwitch shares one row between two memories, and in one
// cycle one memory may load OR[s] while the other writes at stage s.

#pragma once

#include <cstdint>
#include <vector>

#include "common/cell.hpp"
#include "common/util.hpp"
#include "sim/wire.hpp"

namespace pmsb {

class OutputRow {
 public:
  OutputRow(unsigned stages, unsigned n_outputs, unsigned word_bits);

  /// Stage s captures `data` this cycle, to drive `out_link` next cycle.
  /// `sop` marks the head word of a cell (stage 0 of the head segment).
  void load(unsigned s, Word data, unsigned out_link, bool sop) {
    load_if(true, s, data, out_link, sop);
  }

  /// load() if `enable`; otherwise store into the spare register, never into
  /// OR[s], which another memory sharing this row may load this cycle.
  void load_if(bool enable, unsigned s, Word data, unsigned out_link, bool sop) {
    // Bitwise, not short-circuit, so that neither check branches on enable.
    PMSB_CHECK(s < stages_, "output-row stage out of range");
    PMSB_CHECK((out_link < n_outputs_) | !enable, "output link out of range");
    PMSB_CHECK(((data & ~mask_) == 0) | !enable, "output word wider than the link");
    Slot& slot = staged_[enable ? s : stages_];
    PMSB_CHECK(!slot.valid, "output register loaded twice in one cycle");
    slot.valid = enable;  // The spare register never becomes valid.
    slot.out_link = out_link;
    slot.flit = Flit{true, sop, data};
    loaded_[n_loaded_] = s;  // Listed only if enabled.
    n_loaded_ += enable;
  }

  /// Put every value loaded this cycle onto its outgoing link for the next
  /// cycle (the register -> link-driver path). Call once per eval, after the
  /// memory stages executed.
  void drive_links(std::vector<WireLink>& out_links) {
    PMSB_CHECK(out_links.size() == n_outputs_, "output link count mismatch");
    if (audit_) audit();
    for (unsigned k = 0; k < n_loaded_; ++k) {
      const Slot& slot = staged_[loaded_[k]];
      out_links[slot.out_link].drive_next(slot.flit);
    }
  }

  /// Clock edge.
  void tick() {
    for (unsigned k = 0; k < n_loaded_; ++k) staged_[loaded_[k]] = Slot{};
    n_loaded_ = 0;
  }

 private:
  friend struct OutputRowPeer;  ///< Test access (corrupts the list in death tests).

  /// Checked mode: the loaded list must name exactly the valid registers.
  void audit() const;

  unsigned stages_;
  unsigned n_outputs_;
  Word mask_;

  struct Slot {
    bool valid = false;
    unsigned out_link = 0;
    Flit flit;
  };
  std::vector<Slot> staged_;      ///< Loads performed this cycle; [stages_] is the spare.
  /// Stages loaded this cycle, first n_loaded_ entries; one spare entry past
  /// the S a cycle can load.
  std::vector<unsigned> loaded_;
  unsigned n_loaded_ = 0;
  bool audit_;                    ///< check::env_enabled() at construction.
};

}  // namespace pmsb
