#include "core/output_row.hpp"

#include "check/invariants.hpp"

namespace pmsb {

OutputRow::OutputRow(unsigned stages, unsigned n_outputs, unsigned word_bits)
    : stages_(stages),
      n_outputs_(n_outputs),
      mask_(low_mask(word_bits)),
      staged_(stages + 1),
      loaded_(stages + 1),
      audit_(check::env_enabled()) {
  PMSB_CHECK(stages > 0 && n_outputs > 0, "degenerate output row");
}

void OutputRow::audit() const {
  std::vector<char> unlisted(stages_, 0);
  unsigned valid = 0;
  for (unsigned s = 0; s < stages_; ++s) {
    unlisted[s] = staged_[s].valid ? 1 : 0;
    valid += staged_[s].valid ? 1 : 0;
  }
  PMSB_CHECK(valid == n_loaded_, "output row's loaded-register list diverged from its flags");
  for (unsigned k = 0; k < n_loaded_; ++k) {
    PMSB_CHECK(unlisted[loaded_[k]], "output row lists a register that was not loaded");
    unlisted[loaded_[k]] = 0;
  }
}

}  // namespace pmsb
