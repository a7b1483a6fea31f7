// The control-signal pipeline of figure 5.
//
// "Each pipeline stage performs exactly the same operation as the previous
//  stage in the previous cycle, and thus we only need to generate the
//  control signals for the first memory stage; the control signals for
//  subsequent stages are delayed versions of the former."  (section 3.3)
//
// StageCtrl is the bundle of control wires entering one memory stage:
// operation kind, buffer address, and the incoming/outgoing link selects.
// CtrlPipeline is the chain of pipeline registers carrying that bundle from
// stage to stage, one stage per cycle:
//
//   * at(0) during cycle t is the wave initiated by the arbiter in cycle t
//     (initiate() must be called during eval of cycle t, before stage 0 is
//     executed -- the arbiter is combinational logic feeding M0's control).
//   * at(s) for s >= 1 during cycle t is whatever stage s-1 executed during
//     cycle t-1, held in pipeline register s-1.
//
// Representation: the stage-0 input and the S-1 pipeline registers are one
// ring of S StageCtrl slots with a rotating head (the idiom AddressPath uses
// for the word-line registers). A clock edge retires the last stage's slot,
// which becomes the next cycle's empty stage-0 slot, and rotates the head,
// instead of copying S-1 bundles. A wave's bundle therefore never moves: it
// sits in one physical slot from initiation to retirement, and its stage is
// that slot's distance from the head. A second ring lists the physical slots
// of the waves in flight, oldest first; since at most one wave starts per
// cycle there are at most S of them, at strictly decreasing stages. So
// for_each_active() visits only the stages a wave occupies, in ascending
// stage order, and busy(), active() and the transfer count are O(1) per
// cycle whatever S is.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

/// Operation performed by one memory stage in one cycle.
enum class StageOp : std::uint8_t {
  kNone,        ///< Stage idle.
  kWrite,       ///< Store IR[in_link][stage] into M[stage][addr].
  kRead,        ///< Load OR[stage] from M[stage][addr], for out_link.
  kWriteSnoop,  ///< kWrite, with OR[stage] snooping the write bus for
                ///< out_link (same-cycle cut-through, section 3.3).
};

// PipelinedMemory::exec_cycle takes the access kind from these bits: bit 0
// stores the stage's word, bit 1 loads its output register.
static_assert(static_cast<unsigned>(StageOp::kWrite) == 1 &&
                  static_cast<unsigned>(StageOp::kRead) == 2 &&
                  static_cast<unsigned>(StageOp::kWriteSnoop) == 3,
              "StageOp values encode the write and load bits");

const char* to_string(StageOp op);

/// Control wires entering one stage during one cycle.
struct StageCtrl {
  StageOp op = StageOp::kNone;
  std::uint32_t addr = 0;      ///< Buffer address (same in every stage).
  std::uint16_t in_link = 0;   ///< Valid for kWrite / kWriteSnoop.
  std::uint16_t out_link = 0;  ///< Valid for kRead / kWriteSnoop.
  bool head = false;           ///< This wave carries the cell's head segment.

  bool idle() const { return op == StageOp::kNone; }
};

/// The per-stage pipeline registers of figure 5.
class CtrlPipeline {
 public:
  explicit CtrlPipeline(unsigned stages);

  unsigned stages() const { return stages_; }

  /// Control presented to stage s during the current cycle.
  const StageCtrl& at(unsigned s) const {
    PMSB_CHECK(s < stages_, "stage index out of range");
    return ring_[phys(s)];
  }

  /// Initiate a wave into stage 0 for the current cycle. At most once per
  /// cycle (the arbiter grants at most one wave -- M0 is single-ported).
  void initiate(const StageCtrl& c) {
    PMSB_CHECK(!injected_this_cycle_,
               "two wave initiations in one cycle (M0 is single-ported)");
    const unsigned p = phys(0);
    ring_[p] = c;  // Idle: cleared by the previous tick().
    if (!c.idle()) waves_[(wave_head_ + active_++) & wave_mask_] = p;
    injected_this_cycle_ = true;
  }

  /// Clock edge: shift the pipeline one stage to the right.
  void tick() {
    // Every non-idle stage but the last moves into its pipeline register;
    // the last stage's control retires (its stage already executed), and it
    // belongs to the oldest wave.
    StageCtrl& last = ring_[phys(stages_ - 1)];
    const unsigned retiring = last.idle() ? 0 : 1;
    ctrl_reg_transfers_ += active_ - retiring;
    active_ -= retiring;
    wave_head_ = (wave_head_ + retiring) & wave_mask_;
    last = StageCtrl{};
    // Rotate: the cleared slot becomes stage 0's input for the next cycle.
    head_ = phys(stages_ - 1);
    injected_this_cycle_ = false;
  }

  /// True if any stage is executing a non-idle operation this cycle.
  bool busy() const { return active_ != 0; }

  /// Number of stages executing a non-idle operation this cycle.
  unsigned active() const { return active_; }

  /// Invoke fn(s, ctrl) on every non-idle stage s of the current cycle, in
  /// ascending stage order (newest wave first).
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    unsigned i = wave_head_ + active_;
    for (unsigned k = 0; k < active_; ++k) {
      const unsigned p = waves_[--i & wave_mask_];
      fn(p >= head_ ? p - head_ : p + stages_ - head_, ring_[p]);
    }
  }

  /// Recount the running state from the ring (checked mode): the in-flight
  /// list must name exactly the non-idle slots, at strictly decreasing
  /// stages. Aborts on a mismatch.
  void audit() const;

  /// Lifetime count of pipeline-register transfers of non-idle control
  /// (for the figure-7 decoded-address ablation).
  std::uint64_t ctrl_reg_transfers() const { return ctrl_reg_transfers_; }

 private:
  /// Ring slot holding stage s's control. tick() steps head_ back by one,
  /// so the old phys(s-1) becomes the new phys(s) without moving any data.
  unsigned phys(unsigned s) const {
    const unsigned p = head_ + s;
    return p < stages_ ? p : p - stages_;
  }

  friend struct CtrlPipelinePeer;  ///< Test access (corrupts counts in death tests).

  unsigned stages_;
  std::vector<StageCtrl> ring_;  ///< ring_[phys(s)] feeds stage s.
  unsigned head_ = 0;
  unsigned active_ = 0;          ///< Non-idle slots in ring_ = waves in flight.
  /// Physical ring_ slots of the waves in flight, oldest at wave_head_; a
  /// power-of-two ring of at least S entries.
  std::vector<std::uint32_t> waves_;
  unsigned wave_mask_ = 0;
  unsigned wave_head_ = 0;
  bool injected_this_cycle_ = false;
  std::uint64_t ctrl_reg_transfers_ = 0;
};

}  // namespace pmsb
