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
// count exact without a per-stage loop at the clock edge.

#pragma once

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

}  // namespace pmsb
