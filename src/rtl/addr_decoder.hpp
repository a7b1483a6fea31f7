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
// Representation: a one-hot word-line register holds exactly one of its D
// lines, so each register is stored as the 64-line block that holds the
// line plus that block's bits (the other D/64 - 1 blocks are all zero and
// are not stored). The registers form one ring; a clock edge rotates the
// ring head instead of copying stages-1 D-bit vectors. Recovering an address
// is one load and one countr_zero -- the same datapath semantics (a genuine
// one-hot line, checked on every use) at a fraction of the simulation cost.
// Decode checks that the staging register is
// clear before it sets one line; every use checks that the register holds
// exactly one line and that it names the address the control pipeline
// carries; retirement clears one word. A register is valid iff its block
// holds a line. A running count of valid registers keeps the
// register-transfer count exact without a per-stage loop at the clock edge,
// and replaces the idle-stage checks with one comparison per cycle: the
// stage walk asks only the stages the control pipeline drives (each must
// hold a valid word line), then requires valid_slots() == the control
// pipeline's active count, so no word line can be live on a stage the
// control leaves idle.
//
// The production memory (core/pipelined_memory.hpp) derives both
// organizations' counts per wave and runs no AddressPath; the stage-walk
// oracle (check/stage_walk.hpp) executes one of each beside it when
// checking is on.

#pragma once

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

  /// Recount the valid registers (checked mode): aborts if the running count
  /// diverged or a register holds two lines or a line beyond the array.
  void audit() const;

  std::uint64_t decode_ops() const { return decode_ops_; }
  std::uint64_t one_hot_reg_transfers() const { return one_hot_transfers_; }

 private:
  friend struct AddressPathPeer;  ///< Test access (corrupts registers in death tests).

  /// Physical ring slot of logical word-line register s. Slot phys(0) stages
  /// the stage-0 decoder output for the next shift; slots phys(1..stages-1)
  /// are the registers between stages. tick() rotates head_ so that the old
  /// phys(s-1) becomes the new phys(s) without moving any bits.
  unsigned phys(unsigned s) const {
    const unsigned p = head_ + s;
    return p < stages_ ? p : p - stages_;
  }

  /// One word-line register: lines [64 * block, 64 * block + 64) are
  /// `lines`, every other line is low. Valid iff lines != 0.
  struct LineReg {
    std::uint32_t block = 0;
    std::uint64_t lines = 0;
  };

  unsigned stages_;
  std::size_t words_;
  AddrPathMode mode_;

  std::vector<LineReg> regs_;  ///< Ring of the stages_ word-line registers.
  unsigned valid_count_ = 0;   ///< Registers holding a line.
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
  // Figure 7(b): stage 0 decodes into the staging register; every stage,
  // stage 0 included, then drives the line its register holds.
  LineReg& r = regs_[phys(s)];
  if (s == 0 && stage_active) {
    ++decode_ops_;
    PMSB_CHECK(ctrl_addr < words_, "decode address out of range");
    PMSB_CHECK(r.lines == 0, "decode into a word-line register that still holds a line");
    r.block = ctrl_addr / 64;
    r.lines = std::uint64_t{1} << (ctrl_addr % 64);
    ++valid_count_;
  }
  const std::uint64_t b = r.lines;
  if (b == 0) {
    PMSB_CHECK(!stage_active, "control pipeline active but word-line pipeline idle");
    return -1;
  }
  PMSB_CHECK(stage_active, "word-line pipeline active but control pipeline idle");
  PMSB_CHECK((b & (b - 1)) == 0, "word-line vector is not one-hot");
  const auto found = static_cast<long>(std::size_t{r.block} * 64 +
                                       static_cast<std::size_t>(std::countr_zero(b)));
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
  const unsigned retiring = regs_[last].lines != 0 ? 1 : 0;
  one_hot_transfers_ += valid_count_ - retiring;
  valid_count_ -= retiring;
  // Rotate the ring: old phys(s-1) becomes new phys(s). The retiring last
  // register becomes the new staging register, cleared for the next decode.
  regs_[last].lines = 0;
  head_ = last;
}

}  // namespace pmsb
