#include "arch/voq_pim.hpp"

namespace pmsb {

VoqPim::VoqPim(unsigned n, std::size_t capacity, unsigned iterations, Rng rng,
               std::size_t per_input_capacity)
    : SlotModel(n), capacity_(capacity), per_input_capacity_(per_input_capacity),
      iterations_(iterations), rng_(rng), voqs_(static_cast<std::size_t>(n) * n),
      input_occupancy_(n, 0), match_out_(n), out_taken_(n), grants_(n) {
  PMSB_CHECK(iterations >= 1, "PIM needs at least one iteration");
}

void VoqPim::do_step(Cycle slot, const SlotArrivals& arrivals) {
  for (const auto& [i, dest] : arrivals) {
    on_injected();
    auto& q = voq(i, dest);
    if ((capacity_ != 0 && q.size() >= capacity_) ||
        (per_input_capacity_ != 0 && input_occupancy_[i] >= per_input_capacity_)) {
      on_dropped();
      continue;
    }
    q.push(SlotCell{slot, i, dest});
    ++input_occupancy_[i];
  }

  // --- Parallel Iterative Matching [AOST93] ---
  std::fill(match_out_.begin(), match_out_.end(), -1);
  std::fill(out_taken_.begin(), out_taken_.end(), false);
  for (unsigned it = 0; it < iterations_; ++it) {
    // Grant phase: every unmatched output picks one requesting unmatched
    // input uniformly at random.
    for (auto& g : grants_) g.clear();
    for (unsigned o = 0; o < n_; ++o) {
      if (out_taken_[o]) continue;
      unsigned n_req = 0;
      unsigned chosen = 0;
      // Reservoir-sample one unmatched requester.
      for (unsigned i = 0; i < n_; ++i) {
        if (match_out_[i] >= 0 || voq(i, o).empty()) continue;
        ++n_req;
        if (rng_.next_below(n_req) == 0) chosen = i;
      }
      if (n_req > 0) grants_[chosen].push_back(o);
    }
    // Accept phase: every input with grants accepts one at random.
    bool any = false;
    for (unsigned i = 0; i < n_; ++i) {
      if (grants_[i].empty() || match_out_[i] >= 0) continue;
      const unsigned o =
          grants_[i][static_cast<std::size_t>(rng_.next_below(grants_[i].size()))];
      match_out_[i] = static_cast<int>(o);
      out_taken_[o] = true;
      any = true;
    }
    if (!any) break;  // Converged.
  }

  // Transfer matched head-of-queue cells.
  for (unsigned i = 0; i < n_; ++i) {
    if (match_out_[i] < 0) continue;
    auto& q = voq(i, static_cast<unsigned>(match_out_[i]));
    on_delivered(slot, q.front());
    q.pop();
    --input_occupancy_[i];
  }
}

std::uint64_t VoqPim::resident() const {
  std::uint64_t r = 0;
  for (const auto& q : voqs_) r += q.size();
  return r;
}

}  // namespace pmsb
