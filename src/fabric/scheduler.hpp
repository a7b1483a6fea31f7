// Work-stealing task runtime for the fabric engine.
//
// One deque of ready tasks per worker. A worker pops a task from its own
// deque and runs it for a slice: advance() again and again while the task
// progresses, waking its blocked neighbors after every step. When the task
// blocks, the worker waits briefly for a neighbor to catch up (the pairwise
// form of a round barrier) and hands the worker back only if none does.
// A worker without work hunts the same way before it parks on its condvar.
// That wait is one escalation, used for both: spin on a cheap poll, then
// poll with a yield in between (the hunt also steals from other deques
// here), then park. Parking is what keeps oversubscribed runs (more workers
// than cores) from livelocking: yield() is a no-op when every runnable
// thread is a poller, but a parked worker lets the straggler run.
//
// Tasks that hand the worker back blocked are NOT requeued -- they sit in
// SchedTask::kBlocked until a neighbor task that shares a channel with them
// makes progress and wakes them through the caller-supplied wake lists. A
// woken task goes back on its home worker's deque (its placement entry),
// not the waker's, so tasks do not migrate on every wake.
//
// Lost-wakeup protocol (the only delicate part): a task T observes "cannot
// advance" from its neighbors' progress counters, then parks. A neighbor U
// may publish new progress between T's observation and T's kBlocked store;
// U's wake attempt would find T still kRunning and do nothing, leaving T
// parked forever. The fix is Dekker-style with seq_cst on both sides:
//
//   worker running T                     worker running U
//   ----------------                     ----------------
//   (reads U's progress: stale)          progress.store(seq_cst)
//   state.store(kBlocked, seq_cst)       if (T.state == kBlocked) wake T
//   if (can_advance()) self-wake
//
// In the seq_cst total order either U's progress store precedes T's block
// store -- then T's can_advance() recheck sees the progress and T self-wakes
// -- or T's block store precedes U's state load, and U wakes T. Both wake
// paths go through a kBlocked -> kReady compare-exchange, so exactly one
// party requeues the task.
//
// Determinism: the scheduler decides only WHERE and WHEN tasks run, never
// WHAT they compute -- simulation state is partitioned per node and every
// cross-task read is bounded by the channel credit protocol, so results are
// bit-identical for any worker count, steal order, or rebalance decision
// (CI-enforced).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "fabric/task.hpp"

namespace pmsb::exp {
class ThreadPool;
}

namespace pmsb::fabric {

class Scheduler {
 public:
  /// Per-worker wall-clock accounting, cumulative over run() calls.
  struct WorkerStats {
    std::uint64_t active_ns = 0;  ///< Inside SchedTask::advance().
    std::uint64_t idle_ns = 0;    ///< Waiting for a neighbor, hunting, parked.
    std::uint64_t steals = 0;     ///< Tasks taken from another worker's deque.
    std::uint64_t slices = 0;     ///< advance() calls executed.
  };

  explicit Scheduler(unsigned workers);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run every task to completion (SchedTask::kDone). `wake_lists[i]` holds
  /// the indices of tasks sharing a channel with task i -- the candidates to
  /// wake after task i progresses. `placement[i]` is task i's home worker:
  /// its deque holds the task at the start and whenever it is woken
  /// (stealing redistributes from there). The pool must have at least
  /// workers() threads available; run() blocks until all tasks finished.
  void run(exp::ThreadPool& pool, const std::vector<SchedTask*>& tasks,
           const std::vector<std::vector<unsigned>>& wake_lists,
           const std::vector<unsigned>& placement);

  /// The same on the calling thread; needs workers() == 1.
  void run(const std::vector<SchedTask*>& tasks,
           const std::vector<std::vector<unsigned>>& wake_lists,
           const std::vector<unsigned>& placement);

  unsigned workers() const { return static_cast<unsigned>(deques_.size()); }
  const std::vector<WorkerStats>& worker_stats() const { return stats_; }
  std::uint64_t total_steals() const;

 private:
  struct Deque {
    std::mutex mu;
    std::deque<unsigned> q;         ///< Ready task indices.
    std::atomic<std::size_t> n{0};  ///< q.size(), for lock-free polling.
  };
  /// A worker's parking spot (guarded by idle_mu_).
  struct Parker {
    std::condition_variable cv;
    bool parked = false;
  };

  void start(const std::vector<SchedTask*>& tasks,
             const std::vector<std::vector<unsigned>>& wake_lists,
             const std::vector<unsigned>& placement);
  void worker_loop(unsigned w);
  /// Run task `ti` on worker `w` until it finishes or hands the worker back.
  void run_slice(unsigned w, unsigned ti);
  void push(unsigned w, unsigned task);
  bool pop(unsigned w, unsigned* task);
  bool steal(unsigned thief, unsigned* task);
  void park(unsigned w);
  /// Wake every kBlocked neighbor of `task` (it just progressed/finished),
  /// attributing its blocked interval to the stall counters.
  void wake_neighbors(unsigned task);

  const std::vector<SchedTask*>* tasks_ = nullptr;
  const std::vector<std::vector<unsigned>>* wake_ = nullptr;
  const std::vector<unsigned>* home_ = nullptr;
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<WorkerStats> stats_;
  std::atomic<unsigned> finished_{0};
  std::atomic<int> pending_{0};  ///< Tasks sitting in deques (approximate).
  unsigned n_tasks_ = 0;

  // Idle parking: a worker that found nothing to pop or steal waits on its
  // own Parker; a push notifies the task's home worker if it is parked (else
  // any parked worker, which may steal the task), and the final task
  // completion notifies every parked worker.
  std::mutex idle_mu_;
  std::vector<std::unique_ptr<Parker>> parkers_;
  std::atomic<unsigned> idle_waiters_{0};
};

}  // namespace pmsb::fabric
