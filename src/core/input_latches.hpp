// The input buffer registers of figure 4: for each incoming link, one row of
// S latches, IR[i][0..S-1]. Word k of an arriving cell is latched into
// IR[i][k mod S] at the end of its arrival cycle; the row is reused
// cyclically by successive segments/cells (the paper's "wave of new packet
// words entering into the input buffer registers, overwriting the old
// data").
//
// The class also verifies the paper's central no-double-buffering claim: a
// latch may be overwritten only after the write wave that needed its old
// value has passed (enforced by an expiry stamp set when a write wave is
// scheduled). Any arbitration bug that would need the wide-memory-style
// second register row trips the check.
//
// Each incoming link loads one word per cycle, so a cycle writes at most n
// of the n*S latches. latch() appends the latch it loads to a staged list
// and tick() commits exactly that list, so the clock edge costs O(loads)
// instead of a walk over the whole array. A latch may be loaded at most
// once per cycle, like any other register, which also keeps the list free
// of duplicates. latch() and tick() are defined here so the switches' per-word
// arrival loop and clock edge inline them.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

class InputLatches {
 public:
  InputLatches(unsigned n_inputs, unsigned stages, unsigned word_bits);

  unsigned stages() const { return stages_; }

  /// Committed latch content (for the stage-s write this cycle).
  Word read(unsigned input, unsigned s) const { return latches_[index(input, s)].q; }

  /// Stage a latch load at the end of the current cycle `t`.
  void latch(unsigned input, unsigned s, Word data, Cycle t) {
    PMSB_CHECK((data & ~mask_) == 0, "latched word wider than the link");
    const std::size_t i = index(input, s);
    Latch& l = latches_[i];
    PMSB_CHECK(!l.loaded, "input latch loaded twice in one cycle");
    // The overwrite commits at the end of cycle t, so the old value is still
    // readable during t itself; it is lost from cycle t+1 on. Two commits
    // are legal while a wave is outstanding: the arriving word the wave
    // expects (t == expected_commit) and anything at/after the consumption
    // cycle.
    PMSB_CHECK(t == l.expected_commit || t >= l.needed_until,
               "input latch overwritten while a scheduled write wave still "
               "needs it -- the no-double-buffering property is violated");
    l.d = data;
    l.loaded = true;
    staged_.push_back(i);
  }

  /// Declare that the write wave initiated at t0 (for the segment whose
  /// head word was latched at the end of a0) consumes IR[input][s] during
  /// cycle t0 + s. The word it expects there is the one committing at the
  /// end of a0 + s -- that commit is legal even though it happens inside the
  /// protection window; any *other* commit before the consumption cycle
  /// destroys data the wave still needs (the violation the wide memory
  /// avoids only by double buffering).
  void protect_for_wave(unsigned input, Cycle t0, Cycle a0);

  /// Clock edge at the end of cycle t: commit the latches loaded during t.
  void tick(Cycle) {
    for (const std::size_t i : staged_) {
      Latch& l = latches_[i];
      l.q = l.d;
      l.loaded = false;
    }
    staged_.clear();
  }

 private:
  unsigned n_inputs_;
  unsigned stages_;
  Word mask_;

  struct Latch {
    Word q = 0;
    Word d = 0;
    bool loaded = false;
    Cycle needed_until = -1;     ///< Consumption cycle of the protected value.
    Cycle expected_commit = -1;  ///< Arrival commit the protection expects.
  };
  std::vector<Latch> latches_;         ///< [input * stages_ + s]
  std::vector<std::size_t> staged_;    ///< Latches loaded this cycle.

  std::size_t index(unsigned input, unsigned s) const {
    PMSB_CHECK(input < n_inputs_ && s < stages_, "latch index out of range");
    return static_cast<std::size_t>(input) * stages_ + s;
  }
};

}  // namespace pmsb
