// "Ready to depart" lists (the paper's outgoing-link logic keeps "the list
// of ready to depart packets", section 4.2).
//
// OutQueues<T> is a set of FIFOs indexed by queue number, each entry a T
// describing a stored cell. Every word-level switch with such lists keeps
// them in one: PipelinedSwitch and DualPipelinedSwitch (one queue per
// output, entries naming buffer addresses), WideMemorySwitch (wide-word
// addresses) and PrizmaSwitch (banks), and CrosspointQueuedSwitch, whose n^2
// crosspoint buffers are queues input * n + output. The lists are a
// registered structure: push() is staged and becomes visible to front(),
// empty() and size() at tick(), the clock edge; pop() takes effect at once.
// Header-only so the per-cycle arbitration inlines it.

#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/small_vec.hpp"
#include "common/util.hpp"

namespace pmsb {

/// A cell resident in (or streaming through) the pipelined shared buffer.
struct BufferedCell {
  unsigned input = 0;                   ///< Arrival link.
  Cycle head_arrival = 0;               ///< a0: head word latched at end of this cycle.
  Cycle write_start = 0;                ///< t0: write-wave initiation cycle.
  SegAddrs seg_addrs;                   ///< One buffer address per segment.
};

template <typename T>
class OutQueues {
 public:
  /// An entry pushed this cycle, not yet visible in its queue.
  struct Staged {
    unsigned queue;
    T entry;
  };

  explicit OutQueues(unsigned n_queues) : queues_(n_queues) {
    PMSB_CHECK(n_queues > 0, "need at least one queue");
  }

  /// Stage `entry` for queue `q`; visible to front()/empty() after tick().
  void push(unsigned q, T entry) {
    PMSB_CHECK(q < queues_.size(), "queue index out of range");
    staged_.push_back(Staged{q, std::move(entry)});
  }

  /// This cycle's pushes, in push order.
  const std::vector<Staged>& staged() const { return staged_; }

  bool empty(unsigned q) const { return queues_[q].empty(); }
  std::size_t size(unsigned q) const { return queues_[q].size(); }

  const T& front(unsigned q) const {
    PMSB_CHECK(!empty(q), "front() of empty queue");
    return queues_[q].front();
  }

  /// Remove the head-of-line entry of queue `q` (effective immediately).
  T pop(unsigned q) {
    PMSB_CHECK(!empty(q), "pop() of empty queue");
    T e = std::move(queues_[q].front());
    queues_[q].pop_front();
    --committed_;
    return e;
  }

  /// Clock edge: commit the staged pushes.
  void tick() {
    for (Staged& s : staged_) queues_[s.queue].push_back(std::move(s.entry));
    committed_ += staged_.size();
    staged_.clear();
    if (committed_ > peak_total_) peak_total_ = committed_;
  }

  /// Entries queued (committed) across all queues. O(1): a running count is
  /// maintained so per-cycle instrumentation can read it for free.
  std::size_t total_size() const { return committed_; }
  /// Lifetime high-water mark of total_size() (updated at tick()).
  std::size_t peak_total_size() const { return peak_total_; }
  /// Nothing queued and nothing staged.
  bool idle() const { return committed_ == 0 && staged_.empty(); }

  /// Invoke fn(queue, entry) on every committed entry, head-of-line first
  /// per queue. Verification only (the invariant checker walks the queues
  /// to prove per-address exclusivity).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (unsigned q = 0; q < queues_.size(); ++q) {
      for (const T& e : queues_[q]) fn(q, e);
    }
  }

 private:
  std::vector<std::deque<T>> queues_;
  std::vector<Staged> staged_;
  std::size_t committed_ = 0;
  std::size_t peak_total_ = 0;
};

}  // namespace pmsb
