// Non-FIFO input buffering: virtual output queues with Parallel Iterative
// Matching [AOST93] (figure 1, middle-left architecture with an advanced
// scheduler). Each input keeps one logical queue per output; a randomized
// iterative matcher computes a conflict-free input/output matching each
// slot. This is the "quite better performing than input queueing, but a
// more complicated scheduler" design the paper compares shared buffering
// against (sections 2.1, 2.3, 5.1) -- and the one whose latency [AOST93,
// fig. 3] showed to be about 2x that of output queueing at loads 0.6-0.9.

#pragma once

#include "arch/slot_sim.hpp"

namespace pmsb {

class VoqPim : public SlotModel {
 public:
  /// capacity = cells per VOQ (0 = unbounded); iterations = PIM rounds per
  /// slot (AOST93 uses log2(n); 4 converges well for n <= 16);
  /// per_input_capacity = total cells across one input's VOQs (0 =
  /// unbounded) -- the physically shared per-input buffer of figure 1.
  VoqPim(unsigned n, std::size_t capacity, unsigned iterations, Rng rng,
         std::size_t per_input_capacity = 0);

  void do_step(Cycle slot, const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override;
  std::uint64_t resident() const override;
  const char* kind() const override { return "VOQ + PIM"; }

 private:
  Fifo<SlotCell>& voq(unsigned i, unsigned o) {
    return voqs_[static_cast<std::size_t>(i) * n_ + o];
  }

  std::size_t capacity_;
  std::size_t per_input_capacity_;
  unsigned iterations_;
  Rng rng_;
  std::vector<Fifo<SlotCell>> voqs_;  ///< [i * n + o]
  std::vector<std::size_t> input_occupancy_;

  // Scratch for the matcher.
  std::vector<int> match_out_;   ///< Per input: matched output or -1.
  std::vector<bool> out_taken_;
  std::vector<std::vector<unsigned>> grants_;  ///< Per input: granting outputs.
};

}  // namespace pmsb
