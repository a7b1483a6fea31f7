#include "rtl/addr_decoder.hpp"

#include <algorithm>
#include <bit>

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
      blocks_((words + 63) / 64),
      bits_(stages * ((words + 63) / 64), 0),
      valid_(stages, 0) {
  PMSB_CHECK(stages >= 1, "address path needs at least one stage");
  PMSB_CHECK(words >= 1, "address path needs at least one word line");
}

long AddressPath::active_addr(unsigned s, std::uint32_t ctrl_addr, bool stage_active) {
  PMSB_CHECK(s < stages_, "stage index out of range");
  if (mode_ == AddrPathMode::kPerStageDecoders) {
    if (!stage_active) return -1;
    ++decode_ops_;
    PMSB_CHECK(ctrl_addr < words_, "decode address out of range");
    return static_cast<long>(ctrl_addr);
  }
  // Figure 7(b): stage 0 decodes; later stages use the registered one-hot
  // vector shifted along the word lines.
  if (s == 0) {
    if (!stage_active) return -1;
    ++decode_ops_;
    PMSB_CHECK(ctrl_addr < words_, "decode address out of range");
    const unsigned p = phys(0);  // Cleared by the previous tick().
    if (!valid_[p]) ++valid_count_;
    valid_[p] = 1;
    bits_[p * blocks_ + ctrl_addr / 64] |= std::uint64_t{1} << (ctrl_addr % 64);
    return static_cast<long>(ctrl_addr);
  }
  const unsigned p = phys(s);
  if (!valid_[p]) {
    PMSB_CHECK(!stage_active, "control pipeline active but word-line pipeline idle");
    return -1;
  }
  PMSB_CHECK(stage_active, "word-line pipeline active but control pipeline idle");
  const std::uint64_t* blocks = &bits_[p * blocks_];
  long found = -1;
  for (std::size_t i = 0; i < blocks_; ++i) {
    const std::uint64_t b = blocks[i];
    if (b == 0) continue;
    PMSB_CHECK(found < 0 && (b & (b - 1)) == 0, "word-line vector is not one-hot");
    found = static_cast<long>(i * 64 + static_cast<std::size_t>(std::countr_zero(b)));
  }
  PMSB_CHECK(found >= 0, "word-line vector has no active line");
  PMSB_CHECK(static_cast<std::uint32_t>(found) == ctrl_addr,
             "decoded-address pipeline diverged from the address the control "
             "pipeline carries (figure 7b functional-equivalence violation)");
  return found;
}

void AddressPath::tick() {
  if (mode_ != AddrPathMode::kDecodedPipeline) return;
  // Register transfers this edge: the staged decoder output entering the
  // pipe, plus every inter-stage register that forwards into its successor,
  // i.e. every valid slot but the last. The last register's contents retire
  // (its stage already fired) and are not transferred anywhere; with one
  // stage, the staging slot is the last slot and nothing transfers.
  const unsigned last = phys(stages_ - 1);
  const unsigned retiring = valid_[last];
  one_hot_transfers_ += valid_count_ - retiring;
  // Rotate the ring: old phys(s-1) becomes new phys(s). The retiring last
  // slot becomes the new staging slot and is wiped for the next decode (an
  // invalid slot has no line set).
  head_ = last;
  if (retiring) {
    --valid_count_;
    valid_[last] = 0;
    std::fill_n(bits_.begin() + static_cast<std::ptrdiff_t>(last * blocks_), blocks_, 0);
  }
}

}  // namespace pmsb
