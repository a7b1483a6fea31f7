#include "arch/input_queueing.hpp"

namespace pmsb {

InputQueueingFifo::InputQueueingFifo(unsigned n, std::size_t capacity, Rng rng)
    : SlotModel(n), capacity_(capacity), rng_(rng), queues_(n) {}

void InputQueueingFifo::do_step(Cycle slot,
                             const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    if (capacity_ != 0 && queues_[i].size() >= capacity_) {
      on_dropped();
      continue;
    }
    queues_[i].push(SlotCell{slot, i, arrivals[i]->dest});
  }
  // Head-of-line contention: every output picks uniformly at random among
  // the inputs whose HOL cell wants it [KaHM87]. The HOL snapshot is taken
  // before any service: an input port transmits at most one cell per slot,
  // even if its next cell targets an output served later in the loop.
  hol_snapshot_.assign(n_, -1);
  for (unsigned i = 0; i < n_; ++i) {
    if (!queues_[i].empty()) hol_snapshot_[i] = static_cast<int>(queues_[i].front().dest);
  }
  for (unsigned o = 0; o < n_; ++o) {
    contenders_.clear();
    for (unsigned i = 0; i < n_; ++i) {
      if (hol_snapshot_[i] == static_cast<int>(o)) contenders_.push_back(i);
    }
    if (contenders_.empty()) continue;
    const unsigned winner =
        contenders_[static_cast<std::size_t>(rng_.next_below(contenders_.size()))];
    on_delivered(slot, queues_[winner].front());
    queues_[winner].pop();
  }
}

std::uint64_t InputQueueingFifo::resident() const {
  std::uint64_t r = 0;
  for (const auto& q : queues_) r += q.size();
  return r;
}

}  // namespace pmsb
