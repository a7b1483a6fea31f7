#include "arch/output_queueing.hpp"

namespace pmsb {

OutputQueueing::OutputQueueing(unsigned n, std::size_t capacity)
    : SlotModel(n), capacity_(capacity), queues_(n), backlogged_(n) {}

void OutputQueueing::do_step(Cycle slot, const SlotArrivals& arrivals) {
  for (const auto& [i, dest] : arrivals) {
    on_injected();
    auto& q = queues_[dest];
    if (capacity_ != 0 && q.size() >= capacity_) {
      on_dropped();
      continue;
    }
    q.push(SlotCell{slot, i, dest});
    backlogged_.insert(dest);
  }
  backlogged_.for_each([&](unsigned o) {
    Fifo<SlotCell>& q = queues_[o];
    on_delivered(slot, q.front());
    q.pop();
    backlogged_.set(o, !q.empty());
  });
}

std::uint64_t OutputQueueing::resident() const {
  std::uint64_t r = 0;
  for (const auto& q : queues_) r += q.size();
  return r;
}

}  // namespace pmsb
