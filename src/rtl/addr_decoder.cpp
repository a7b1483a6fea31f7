#include "rtl/addr_decoder.hpp"

namespace pmsb {

std::vector<bool> decode_one_hot(std::uint32_t addr, std::size_t words) {
  PMSB_CHECK(addr < words, "decode address out of range");
  std::vector<bool> lines(words, false);
  lines[addr] = true;
  return lines;
}

std::uint32_t encode_from_one_hot(const std::vector<bool>& lines) {
  long found = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i]) {
      PMSB_CHECK(found < 0, "word-line vector is not one-hot");
      found = static_cast<long>(i);
    }
  }
  PMSB_CHECK(found >= 0, "word-line vector has no active line");
  return static_cast<std::uint32_t>(found);
}

AddressPath::AddressPath(unsigned stages, std::size_t words, AddrPathMode mode)
    : stages_(stages),
      words_(words),
      mode_(mode),
      regs_(stages) {
  PMSB_CHECK(stages >= 1, "address path needs at least one stage");
  PMSB_CHECK(words >= 1, "address path needs at least one word line");
}

void AddressPath::audit() const {
  unsigned valid = 0;
  for (const LineReg& r : regs_) {
    if (r.lines == 0) continue;
    ++valid;
    PMSB_CHECK((r.lines & (r.lines - 1)) == 0, "word-line vector is not one-hot");
    PMSB_CHECK(std::size_t{r.block} * 64 + static_cast<std::size_t>(std::countr_zero(r.lines)) <
                   words_,
               "word-line register holds a line beyond the array");
  }
  PMSB_CHECK(valid == valid_count_, "word-line pipeline's running valid count diverged");
}

}  // namespace pmsb
