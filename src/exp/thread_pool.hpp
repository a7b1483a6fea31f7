// Fixed-size worker pool for the experiment runner (src/exp/sweep.hpp) and
// the fabric engines (src/fabric/).
//
// Deliberately minimal: a FIFO work queue of type-erased closures, a fixed
// set of worker threads, and a graceful shutdown that FINISHES all queued
// work before joining (a sweep submitted before destruction is never
// silently dropped -- determinism of the bench output depends on every
// submitted point running exactly once). Completion/ordering/exception
// semantics live one level up in SweepRunner, which is what the benches use.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/util.hpp"

namespace pmsb::exp {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);

  /// Drains the queue (queued tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Tasks are picked up in FIFO order by whichever worker
  /// frees up first; nothing may be submitted after shutdown began.
  void submit(std::function<void()> fn);

  /// Block until the queue is empty and no worker is executing a task.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Signals workers: work or shutdown.
  std::condition_variable idle_cv_;  ///< Signals waiters: pool went idle.
  unsigned active_ = 0;              ///< Tasks currently executing.
  bool shutdown_ = false;
};

}  // namespace pmsb::exp
