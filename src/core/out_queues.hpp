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
// Each list is a Fifo ring (common/fifo.hpp) of 4-byte slot numbers; the
// entries themselves sit in one slot pool shared by all the lists, as the
// paper's lists share one pointer memory. The pool grows to the peak number
// of cells queued at once, which the buffer's capacity bounds; a ring per
// list holding whole entries would grow each list to its own peak, and in
// a saturated 16-port switch their sum is several times the buffer. A warm
// switch queues and dequeues without allocating. Header-only so the
// per-cycle arbitration inlines it.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/fifo.hpp"
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

  const T& front(unsigned q) const { return slots_[queues_[q].front()]; }

  /// Remove the head-of-line entry of queue `q` (effective immediately).
  T pop(unsigned q) {
    const std::uint32_t slot = queues_[q].front();
    queues_[q].pop();
    free_slots_.push_back(slot);
    --committed_;
    return std::move(slots_[slot]);
  }

  /// Clock edge: commit the staged pushes.
  void tick() {
    for (Staged& s : staged_) {
      const std::uint32_t slot = take_slot();
      slots_[slot] = std::move(s.entry);
      queues_[s.queue].push(slot);
    }
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
      for (std::size_t k = 0; k < queues_[q].size(); ++k) fn(q, slots_[queues_[q][k]]);
    }
  }

 private:
  /// Pool slots allocated first; the pool doubles when none is free.
  static constexpr std::size_t kMinSlots = 16;

  std::uint32_t take_slot() {
    if (free_slots_.empty()) {
      const std::size_t old = slots_.size();
      const std::size_t grown = old == 0 ? kMinSlots : 2 * old;
      slots_.resize(grown);
      free_slots_.reserve(grown);
      for (std::size_t i = grown; i > old; --i)
        free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  std::vector<Fifo<std::uint32_t>> queues_;  ///< Per list: slots_ indices, head first.
  std::vector<T> slots_;                     ///< Entries, grown to the peak queued.
  std::vector<std::uint32_t> free_slots_;    ///< slots_ not in any list.
  std::vector<Staged> staged_;
  std::size_t committed_ = 0;
  std::size_t peak_total_ = 0;
};

}  // namespace pmsb
