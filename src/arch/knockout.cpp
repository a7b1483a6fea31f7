#include "arch/knockout.hpp"

namespace pmsb {

KnockoutSwitch::KnockoutSwitch(unsigned n, unsigned concentration, std::size_t capacity, Rng rng)
    : SlotModel(n), l_(concentration), capacity_(capacity), rng_(rng), queues_(n),
      per_output_(n) {
  PMSB_CHECK(concentration >= 1 && concentration <= n, "concentration L must be in [1, n]");
}

void KnockoutSwitch::do_step(Cycle slot, const SlotArrivals& arrivals) {
  for (auto& v : per_output_) v.clear();
  for (const auto& [i, dest] : arrivals) {
    on_injected();
    per_output_[dest].push_back(SlotCell{slot, i, dest});
  }
  for (unsigned o = 0; o < n_; ++o) {
    auto& cand = per_output_[o];
    // Knockout tournament: a uniformly random subset of L survives.
    for (std::size_t k = cand.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(rng_.next_below(k));
      std::swap(cand[k - 1], cand[j]);
    }
    for (std::size_t k = 0; k < cand.size(); ++k) {
      if (k >= l_) {
        on_dropped();
        ++knockout_losses_;
        continue;
      }
      if (capacity_ != 0 && queues_[o].size() >= capacity_) {
        on_dropped();
        continue;
      }
      queues_[o].push(cand[k]);
    }
    if (!queues_[o].empty()) {
      on_delivered(slot, queues_[o].front());
      queues_[o].pop();
    }
  }
}

std::uint64_t KnockoutSwitch::resident() const {
  std::uint64_t r = 0;
  for (const auto& q : queues_) r += q.size();
  return r;
}

}  // namespace pmsb
