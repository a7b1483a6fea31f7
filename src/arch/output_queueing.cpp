#include "arch/output_queueing.hpp"

namespace pmsb {

OutputQueueing::OutputQueueing(unsigned n, std::size_t capacity)
    : SlotModel(n), capacity_(capacity), queues_(n) {}

void OutputQueueing::do_step(Cycle slot,
                          const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    auto& q = queues_[arrivals[i]->dest];
    if (capacity_ != 0 && q.size() >= capacity_) {
      on_dropped();
      continue;
    }
    q.push(SlotCell{slot, i, arrivals[i]->dest});
  }
  for (unsigned o = 0; o < n_; ++o) {
    if (queues_[o].empty()) continue;
    on_delivered(slot, queues_[o].front());
    queues_[o].pop();
  }
}

std::uint64_t OutputQueueing::resident() const {
  std::uint64_t r = 0;
  for (const auto& q : queues_) r += q.size();
  return r;
}

}  // namespace pmsb
