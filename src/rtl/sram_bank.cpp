#include "rtl/sram_bank.hpp"

namespace pmsb {

SramBank::SramBank(std::size_t words, unsigned word_bits)
    : array_(words + 1, 0),
      spare_(words),
      word_bits_(word_bits),
      mask_(low_mask(word_bits)),
      pend_addr_(words) {
  PMSB_CHECK(words > 0, "SRAM bank needs at least one word");
  PMSB_CHECK(word_bits >= 1 && word_bits <= 64, "SRAM word width out of range");
}

Word SramBank::debug_peek(std::size_t addr) const {
  PMSB_CHECK(addr < spare_, "debug_peek address out of range");
  return array_[addr];
}

}  // namespace pmsb
