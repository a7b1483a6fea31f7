#include "core/input_latches.hpp"

namespace pmsb {

InputLatches::InputLatches(unsigned n_inputs, unsigned stages, unsigned word_bits)
    : n_inputs_(n_inputs), stages_(stages), mask_(low_mask(word_bits)),
      latches_(static_cast<std::size_t>(n_inputs) * stages) {
  PMSB_CHECK(n_inputs > 0 && stages > 0, "degenerate latch array");
  staged_.reserve(n_inputs);  // One word per incoming link per cycle.
}

void InputLatches::latch(unsigned input, unsigned s, Word data, Cycle t) {
  PMSB_CHECK((data & ~mask_) == 0, "latched word wider than the link");
  const std::size_t i = index(input, s);
  Latch& l = latches_[i];
  PMSB_CHECK(!l.loaded, "input latch loaded twice in one cycle");
  // The overwrite commits at the end of cycle t, so the old value is still
  // readable during t itself; it is lost from cycle t+1 on. Two commits are
  // legal while a wave is outstanding: the arriving word the wave expects
  // (t == expected_commit) and anything at/after the consumption cycle.
  PMSB_CHECK(t == l.expected_commit || t >= l.needed_until,
             "input latch overwritten while a scheduled write wave still "
             "needs it -- the no-double-buffering property is violated");
  l.d = data;
  l.loaded = true;
  staged_.push_back(i);
}

void InputLatches::protect_for_wave(unsigned input, Cycle t0, Cycle a0) {
  PMSB_CHECK(t0 > a0, "write wave cannot initiate before the head word is latched");
  for (unsigned s = 0; s < stages_; ++s) {
    Latch& l = latches_[index(input, s)];
    l.needed_until = t0 + static_cast<Cycle>(s);
    l.expected_commit = a0 + static_cast<Cycle>(s);
  }
}

void InputLatches::tick(Cycle) {
  for (const std::size_t i : staged_) {
    Latch& l = latches_[i];
    l.q = l.d;
    l.loaded = false;
  }
  staged_.clear();
}

}  // namespace pmsb
