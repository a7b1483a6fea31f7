#include "core/input_latches.hpp"

namespace pmsb {

InputLatches::InputLatches(unsigned n_inputs, unsigned stages, unsigned word_bits)
    : n_inputs_(n_inputs), stages_(stages), mask_(low_mask(word_bits)),
      latches_(static_cast<std::size_t>(n_inputs) * stages) {
  PMSB_CHECK(n_inputs > 0 && stages > 0, "degenerate latch array");
}

void InputLatches::protect_for_wave(unsigned input, Cycle t0, Cycle a0) {
  PMSB_CHECK(t0 > a0, "write wave cannot initiate before the head word is latched");
  for (unsigned s = 0; s < stages_; ++s) {
    Latch& l = latches_[index(input, s)];
    l.needed_until = t0 + static_cast<Cycle>(s);
    l.expected_commit = a0 + static_cast<Cycle>(s);
  }
}

}  // namespace pmsb
