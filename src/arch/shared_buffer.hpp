// Shared (centralized) buffering (figure 2, right): one memory pool for the
// whole switch, logically organized as per-output queues. Same optimal link
// utilization as output queueing, but statistically multiplexed storage --
// the best buffer-memory utilization of all organizations (section 2.2).
// This is the behavioural (untimed) counterpart of the cycle-accurate
// PipelinedSwitch.
//
// How one output's share of the pool is bounded is a pluggable
// AdmissionPolicy (admission.hpp); the default StaticCapPolicy reproduces
// the seed model's fixed out_queue_limit bit-for-bit.

#pragma once

#include <memory>

#include "arch/admission.hpp"
#include "arch/slot_sim.hpp"

namespace pmsb {

class SharedBufferModel : public SlotModel {
 public:
  /// Why cells were dropped. `pool_full` is the shared memory itself
  /// overflowing; `output_cap` / `policy_reject` are the admission policy
  /// protecting the pool from one output (split by the policy's
  /// reject_kind, so the static cap keeps its historical attribution).
  struct DropSplit {
    std::uint64_t pool_full = 0;
    std::uint64_t output_cap = 0;
    std::uint64_t policy_reject = 0;
    std::uint64_t total() const { return pool_full + output_cap + policy_reject; }
  };

  /// capacity = total cells in the shared pool; 0 = unbounded.
  /// out_queue_limit caps one output's share of the pool (0 = no cap):
  /// the standard defence against buffer hogging by a saturated output
  /// (used by real shared-buffer switches, cf. [DeEI95], [Koza91]).
  SharedBufferModel(unsigned n, std::size_t capacity, std::size_t out_queue_limit = 0);

  /// Shared pool guarded by an explicit admission policy.
  SharedBufferModel(unsigned n, std::size_t capacity, std::unique_ptr<AdmissionPolicy> policy);

  std::uint64_t resident() const override { return resident_; }
  const char* kind() const override { return "shared buffer"; }

  std::uint64_t peak_occupancy() const { return peak_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t queue_len(unsigned output) const { return queues_[output].size(); }
  std::size_t free_pool() const {
    return capacity_ > resident_ ? capacity_ - static_cast<std::size_t>(resident_) : 0;
  }

  const AdmissionPolicy& policy() const { return *policy_; }
  const DropSplit& drop_split() const { return drop_split_; }
  const std::vector<std::uint64_t>& drops_by_output() const { return drops_by_output_; }

 protected:
  void do_step(Cycle slot,
               const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override;

 private:
  std::size_t capacity_;
  std::unique_ptr<AdmissionPolicy> policy_;
  std::vector<Fifo<SlotCell>> queues_;  ///< Logical per-output queues.
  std::uint64_t resident_ = 0;
  std::uint64_t peak_ = 0;
  DropSplit drop_split_;
  std::vector<std::uint64_t> drops_by_output_;
};

}  // namespace pmsb
