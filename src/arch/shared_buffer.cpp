#include "arch/shared_buffer.hpp"

namespace pmsb {

SharedBufferModel::SharedBufferModel(unsigned n, std::size_t capacity,
                                     std::size_t out_queue_limit)
    : SharedBufferModel(n, capacity, std::make_unique<StaticCapPolicy>(out_queue_limit)) {}

SharedBufferModel::SharedBufferModel(unsigned n, std::size_t capacity,
                                     std::unique_ptr<AdmissionPolicy> policy)
    : SlotModel(n),
      capacity_(capacity),
      policy_(std::move(policy)),
      queues_(n),
      drops_by_output_(n, 0) {
  PMSB_CHECK(policy_ != nullptr, "shared buffer needs an admission policy");
  policy_->bind(n, capacity);
}

void SharedBufferModel::do_step(Cycle slot,
                                const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  policy_->on_slot(slot);
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    const unsigned dest = arrivals[i]->dest;
    PMSB_CHECK(dest < n_, "arrival destination out of range");
    if (capacity_ != 0 && resident_ >= capacity_) {
      on_dropped();
      ++drop_split_.pool_full;
      ++drops_by_output_[dest];
      continue;
    }
    if (!policy_->admit(dest, queues_[dest].size(), static_cast<std::size_t>(resident_))) {
      on_dropped();
      if (policy_->reject_kind() == AdmissionPolicy::RejectKind::kOutputCap) {
        ++drop_split_.output_cap;
      } else {
        ++drop_split_.policy_reject;
      }
      ++drops_by_output_[dest];
      continue;
    }
    queues_[dest].push(SlotCell{slot, i, dest});
    ++resident_;
    peak_ = std::max(peak_, resident_);
  }
  for (unsigned o = 0; o < n_; ++o) {
    if (queues_[o].empty()) continue;
    on_delivered(slot, queues_[o].front());
    queues_[o].pop();
    --resident_;
    policy_->on_delivered(o, slot);
  }
}

}  // namespace pmsb
