// Schedulable unit of the fabric engine.
//
// A SchedTask owns a contiguous block of fabric nodes and steps them in
// lockstep, one bounded chunk per advance() call; it blocks only on the
// channels that cross into other tasks -- upstream data (input lookahead
// exhausted) or downstream credit (ring full) -- never on a global barrier.
// The Scheduler (src/fabric/scheduler.hpp) runs tasks on an exp::ThreadPool,
// keeps a task stepping while its neighbors keep pace, and wakes a blocked
// task when one of its channel neighbors makes progress.
//
// State machine (stored here so the scheduler stays task-type agnostic):
//
//            push            pop              advance() == progress
//   kReady ----------> in a deque ----> kRunning ----> kRunning (same slice)
//     ^                                    |
//     |  neighbor wake (CAS) /             | advance() == blocked, and the
//     |  self-recheck (CAS)                v neighbors stay behind
//     +---------------------------- kBlocked ----> kDone (all nodes at target)
//
// Only the transition kBlocked -> kReady is contended (the owning worker's
// post-block recheck races neighbor wakes); it is a compare-exchange so a
// task is pushed by exactly one party. The blocked <-> wake handshake uses
// seq_cst together with the tasks' progress counters (see the "lost wakeup"
// note in scheduler.hpp).

#pragma once

#include <atomic>
#include <cstdint>

namespace pmsb::fabric {

/// Result of one SchedTask::advance() call.
enum class Advance : std::uint8_t {
  kProgress,        ///< The task moved forward.
  kBlockedOnEmpty,  ///< It waits for upstream data from another task.
  kBlockedOnFull,   ///< It waits for downstream credit from another task.
  kFinished,        ///< Every owned node reached the run target.
};

class SchedTask {
 public:
  virtual ~SchedTask() = default;

  /// Advance the owned nodes by at most one chunk (bounded by the fabric's
  /// link lookahead). Must publish all progress (with the ordering the
  /// wake protocol requires) before returning.
  virtual Advance advance() = 0;

  /// Cheap conservative recheck: true when advance() would make progress
  /// right now. Used to close the block-vs-wake race; a false positive only
  /// costs a wasted call, a false negative would deadlock -- so err ready.
  virtual bool can_advance() const = 0;

  enum State : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  std::atomic<std::uint8_t> state{kReady};
  /// Why the task is parked (an Advance value); written by the owning
  /// worker right before the kBlocked store, read by the waker to attribute
  /// the blocked interval to the right counter.
  std::atomic<std::uint8_t> blocked_reason{0};
  /// steady_clock nanosecond stamp of the kBlocked transition.
  std::atomic<std::uint64_t> blocked_since_ns{0};

  // Cumulative telemetry (relaxed; exact totals are read only after a run
  // completes, via the pool's join/wait_idle ordering).
  std::atomic<std::uint64_t> active_ns{0};
  /// Waiting inside a slice for a neighbor to catch up (spin, then yield):
  /// the pairwise form of a round barrier's wait.
  std::atomic<std::uint64_t> wait_ns{0};
  std::atomic<std::uint64_t> blocked_on_empty_ns{0};
  std::atomic<std::uint64_t> blocked_on_full_ns{0};
  std::atomic<std::uint64_t> steals{0};   ///< Times this task ran on a thief.
  std::atomic<std::uint64_t> slices{0};   ///< advance() calls executed.
  std::atomic<std::uint64_t> rounds{0};   ///< Stepped chunks (skipped excluded).
};

}  // namespace pmsb::fabric
