// Fifo<T>: a first-in first-out queue on a power-of-two ring, the one FIFO
// behind every cell queue of the simulators (the switches' ready-to-depart
// lists, the slot-level models' queues, the scoreboard's outstanding
// cells). The paper's queues are hardware structures sized by the buffer,
// not by how long the run is; the ring models that. It allocates nothing
// until the first push, doubles when a push finds it full, and never
// shrinks, so a queue's memory follows its peak occupancy and a warm
// simulator pushes and pops without touching the heap. A std::deque, by
// contrast, allocates its map and a block even while empty and frees and
// reallocates a block each time the queue crosses a block boundary.
//
// Storage is a std::vector indexed through operator[], so a libstdc++
// build with _GLIBCXX_ASSERTIONS bounds-checks every slot access; front()
// and pop() of an empty queue, and an index past size(), abort through
// PMSB_CHECK in every build. Elements must be default-constructible and
// movable. A popped element stays in its slot until a later push
// overwrites it.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/util.hpp"

namespace pmsb {

template <typename T>
class Fifo {
 public:
  /// Capacity of the first allocation.
  static constexpr std::size_t kMinCapacity = 8;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated: 0 before the first push, else a power of two.
  std::size_t capacity() const { return ring_.size(); }

  void push(T v) {
    if (size_ == ring_.size()) grow();
    ring_[slot(size_)] = std::move(v);
    ++size_;
  }

  T& front() {
    PMSB_CHECK(size_ != 0, "front() of empty queue");
    return ring_[head_];
  }
  const T& front() const {
    PMSB_CHECK(size_ != 0, "front() of empty queue");
    return ring_[head_];
  }

  /// Remove the head-of-line element.
  void pop() {
    PMSB_CHECK(size_ != 0, "pop() of empty queue");
    head_ = slot(1);
    --size_;
  }

  /// Empty the queue; the ring keeps its capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// The i-th element from the head (0 is front()).
  const T& operator[](std::size_t i) const {
    PMSB_CHECK(i < size_, "queue index out of range");
    return ring_[slot(i)];
  }

 private:
  /// Ring slot of the i-th element from the head.
  std::size_t slot(std::size_t i) const { return (head_ + i) & (ring_.size() - 1); }

  void grow() {
    std::vector<T> next(ring_.empty() ? kMinCapacity : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(ring_[slot(i)]);
    ring_.swap(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;  ///< Slot of front().
  std::size_t size_ = 0;
};

}  // namespace pmsb
