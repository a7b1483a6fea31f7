#include "arch/crosspoint.hpp"

namespace pmsb {

CrosspointQueueing::CrosspointQueueing(unsigned n, std::size_t capacity)
    : SlotModel(n), capacity_(capacity),
      queues_(static_cast<std::size_t>(n) * n),
      column_rr_(n, RoundRobin(n)) {}

void CrosspointQueueing::do_step(Cycle slot,
                              const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    auto& queue = q(i, arrivals[i]->dest);
    if (capacity_ != 0 && queue.size() >= capacity_) {
      on_dropped();
      continue;
    }
    queue.push(SlotCell{slot, i, arrivals[i]->dest});
  }
  for (unsigned o = 0; o < n_; ++o) {
    const int i = column_rr_[o].pick([&](unsigned in) { return !q(in, o).empty(); });
    if (i < 0) continue;
    auto& queue = q(static_cast<unsigned>(i), o);
    on_delivered(slot, queue.front());
    queue.pop();
  }
}

std::uint64_t CrosspointQueueing::resident() const {
  std::uint64_t r = 0;
  for (const auto& queue : queues_) r += queue.size();
  return r;
}

}  // namespace pmsb
