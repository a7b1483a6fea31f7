#include "arch/input_smoothing.hpp"

#include <algorithm>

namespace pmsb {

InputSmoothing::InputSmoothing(unsigned n, std::size_t frame, Rng rng)
    : SlotModel(n), frame_(frame), rng_(rng), smoothing_(n), out_(n), per_output_(n) {
  PMSB_CHECK(frame >= 1, "frame must be at least one slot");
}

void InputSmoothing::do_step(Cycle slot,
                          const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) {
  PMSB_CHECK(arrivals.size() == n_, "arrival vector size mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    if (!arrivals[i]) continue;
    on_injected();
    if (smoothing_[i].size() >= frame_) {  // Smoothing buffer overflow.
      on_dropped();
      continue;
    }
    smoothing_[i].push_back(SlotCell{slot, i, arrivals[i]->dest});
  }
  // Transmit one cell per output from the frame being played out.
  for (unsigned o = 0; o < n_; ++o) {
    if (out_[o].empty()) continue;
    on_delivered(slot, out_[o].front());
    out_[o].pop();
  }
  if (++slot_in_frame_ == static_cast<Cycle>(frame_)) {
    slot_in_frame_ = 0;
    launch_frame(slot);
  }
}

void InputSmoothing::launch_frame(Cycle) {
  // Collect all smoothed cells per output; accept at most `frame_` each,
  // chosen fairly at random among the contenders (the space-division stage
  // has no memory); the rest are knocked out.
  for (auto& v : per_output_) v.clear();
  for (auto& buf : smoothing_) {
    for (auto& c : buf) per_output_[c.dest].push_back(c);
    buf.clear();
  }
  for (unsigned o = 0; o < n_; ++o) {
    auto& cand = per_output_[o];
    // Fisher-Yates: a uniformly random subset of `frame_` survives.
    for (std::size_t k = cand.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(rng_.next_below(k));
      std::swap(cand[k - 1], cand[j]);
    }
    for (std::size_t k = 0; k < cand.size(); ++k) {
      if (k < frame_)
        out_[o].push(cand[k]);
      else
        on_dropped();
    }
  }
}

std::uint64_t InputSmoothing::resident() const {
  std::uint64_t r = 0;
  for (const auto& b : smoothing_) r += b.size();
  for (const auto& q : out_) r += q.size();
  return r;
}

}  // namespace pmsb
