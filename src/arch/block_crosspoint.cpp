#include "arch/block_crosspoint.hpp"

namespace pmsb {

BlockCrosspoint::BlockCrosspoint(unsigned n, unsigned groups, std::size_t capacity)
    : SlotModel(n), g_(groups), capacity_(capacity),
      blocks_(static_cast<std::size_t>(groups) * groups),
      out_rr_(n, RoundRobin(groups)) {
  PMSB_CHECK(groups >= 1 && n % groups == 0, "groups must divide the port count");
  for (auto& b : blocks_) b.per_output.resize(n);
}

void BlockCrosspoint::do_step(Cycle slot,
                           const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    const unsigned o = arrivals[i]->dest;
    Block& b = block(group_of(i), group_of(o));
    if (capacity_ != 0 && b.resident >= capacity_) {
      on_dropped();
      continue;
    }
    b.per_output[o].push(SlotCell{slot, i, o});
    ++b.resident;
  }
  for (unsigned o = 0; o < n_; ++o) {
    const unsigned go = group_of(o);
    const int gi = out_rr_[o].pick(
        [&](unsigned src_group) { return !block(src_group, go).per_output[o].empty(); });
    if (gi < 0) continue;
    Block& b = block(static_cast<unsigned>(gi), go);
    on_delivered(slot, b.per_output[o].front());
    b.per_output[o].pop();
    --b.resident;
  }
}

std::uint64_t BlockCrosspoint::resident() const {
  std::uint64_t r = 0;
  for (const auto& b : blocks_) r += b.resident;
  return r;
}

}  // namespace pmsb
