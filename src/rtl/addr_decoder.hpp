// Address-path models for figure 7: (a) a full address decoder per memory
// stage, versus (b) the paper's novel decoded-address pipeline, where the
// one-hot word-line vector produced by the single stage-0 decoder is passed
// from stage to stage through pipeline flip-flops ("the word lines of all
// stages are connected through pipeline flip-flops into long word lines,
// which are activated in a wave-like fashion", section 4.3).
//
// Both organizations are functionally identical (the same word line fires in
// stage s during cycle t0+s); what differs is the hardware exercised per
// wave: `stages` decode operations versus 1 decode + (stages-1) register
// transfers of a D-word one-hot vector. AddressPath counts both so the
// bench_a2 ablation can attach area/energy constants to them, and it
// *executes* the one-hot pipeline so tests can verify the functional
// equivalence claim rather than assume it.
//
// Representation: the word-line registers are stored as 64-line blocks
// (std::uint64_t) in one flat ring buffer. A clock edge rotates the ring
// head instead of copying stages-1 D-bit vectors, and recovering an address
// scans D/64 words instead of D bools -- the same datapath semantics
// (genuine one-hot bits, checked on every read) at a fraction of the
// simulation cost. This path sits inside the per-cycle kernel loop of every
// cycle-accurate experiment, so it dominated bench_sim_speed before the
// block rewrite. A running count of valid slots keeps the register-transfer
// count exact without a per-stage loop at the clock edge, and lets the
// memory replace the idle-stage checks with one comparison per cycle: it
// asks only the stages the control pipeline drives (each must hold a valid
// word line), then requires valid_slots() == the control pipeline's active
// count, so no word line can be live on a stage the control leaves idle.
// active_addr() and tick() are defined in this header so the per-cycle
// calls inline into PipelinedMemory.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

enum class AddrPathMode {
  kPerStageDecoders,   ///< Figure 7(a): every stage re-decodes the address.
  kDecodedPipeline,    ///< Figure 7(b): decode once, pipeline the word line.
};

/// Decode an address into a one-hot word-line vector of `words` lines.
std::vector<bool> decode_one_hot(std::uint32_t addr, std::size_t words);

/// Recover the address from a one-hot word-line vector (asserts one-hot).
std::uint32_t encode_from_one_hot(const std::vector<bool>& lines);

class AddressPath {
 public:
  AddressPath(unsigned stages, std::size_t words, AddrPathMode mode);

  AddrPathMode mode() const { return mode_; }
  unsigned stages() const { return stages_; }

  /// The address whose word line is active in stage s this cycle, or -1 if
  /// the stage is idle. In kDecodedPipeline mode this is computed from the
  /// pipelined one-hot vector (exercising the figure-7b datapath); in
  /// kPerStageDecoders mode it decodes the address delivered by the control
  /// pipeline (counting one decode operation).
  long active_addr(unsigned s, std::uint32_t ctrl_addr, bool stage_active);

  /// Clock edge: shift the one-hot pipeline.
  void tick();

  /// Word-line registers (including stage 0's decoder output) holding a
  /// valid line this cycle. Always 0 in kPerStageDecoders mode.
  unsigned valid_slots() const { return valid_count_; }

  /// Recount the valid flags and word lines (checked mode): aborts if the
  /// running count or an invalid slot's lines diverged.
  void audit() const;

  std::uint64_t decode_ops() const { return decode_ops_; }
  std::uint64_t one_hot_reg_transfers() const { return one_hot_transfers_; }

 private:
  /// Physical ring slot of logical word-line register s. Slot phys(0) stages
  /// the stage-0 decoder output for the next shift; slots phys(1..stages-1)
  /// are the registers between stages. tick() rotates head_ so that the old
  /// phys(s-1) becomes the new phys(s) without moving any bits.
  unsigned phys(unsigned s) const {
    const unsigned p = head_ + s;
    return p < stages_ ? p : p - stages_;
  }

  unsigned stages_;
  std::size_t words_;
  AddrPathMode mode_;

  std::size_t blocks_;                ///< 64-line blocks per register.
  std::vector<std::uint64_t> bits_;   ///< stages_ x blocks_ ring of word lines.
  std::vector<std::uint8_t> valid_;   ///< Per-slot valid flag.
  unsigned valid_count_ = 0;          ///< Set flags in valid_.
  unsigned head_ = 0;

  std::uint64_t decode_ops_ = 0;
  std::uint64_t one_hot_transfers_ = 0;
};

inline long AddressPath::active_addr(unsigned s, std::uint32_t ctrl_addr, bool stage_active) {
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

inline void AddressPath::tick() {
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
