#include "arch/input_queueing.hpp"

namespace pmsb {

InputQueueingFifo::InputQueueingFifo(unsigned n, std::size_t capacity, Rng rng)
    : SlotModel(n), capacity_(capacity), rng_(rng), queues_(n), contenders_(n),
      bucket_end_(n + 1) {}

void InputQueueingFifo::do_step(Cycle slot, const SlotArrivals& arrivals) {
  for (const auto& [i, dest] : arrivals) {
    on_injected();
    if (capacity_ != 0 && queues_[i].size() >= capacity_) {
      on_dropped();
      continue;
    }
    queues_[i].push(SlotCell{slot, i, dest});
  }
  // Head-of-line contention: every output picks uniformly at random among
  // the inputs whose HOL cell wants it [KaHM87]. The HOL cells are bucketed
  // by destination before any service -- an input port transmits at most
  // one cell per slot, even if its next cell targets an output served later
  // in the loop -- by a counting sort that keeps each output's contenders in
  // ascending input order. Placing input i advances bucket_end_[dest] from
  // its bucket's start to its end, so afterwards output o's contenders are
  // contenders_[bucket_end_[o - 1], bucket_end_[o]), from 0 for o = 0.
  std::fill(bucket_end_.begin(), bucket_end_.end(), 0u);
  for (unsigned i = 0; i < n_; ++i) {
    if (!queues_[i].empty()) ++bucket_end_[queues_[i].front().dest + 1];
  }
  for (unsigned o = 1; o < n_; ++o) bucket_end_[o] += bucket_end_[o - 1];
  for (unsigned i = 0; i < n_; ++i) {
    if (!queues_[i].empty()) contenders_[bucket_end_[queues_[i].front().dest]++] = i;
  }
  unsigned begin = 0;
  for (unsigned o = 0; o < n_; ++o) {
    const unsigned end = bucket_end_[o];
    if (end == begin) continue;
    const unsigned winner = contenders_[begin + rng_.next_below(end - begin)];
    begin = end;
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
