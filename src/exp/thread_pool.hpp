// Fixed-size worker pool for the experiment runner (src/exp/sweep.hpp) and
// the fabric engines (src/fabric/).
//
// Deliberately minimal: a FIFO work queue of type-erased closures, a fixed
// set of worker threads, and a graceful shutdown that FINISHES all queued
// work before joining (a sweep submitted before destruction is never
// silently dropped -- determinism of the bench output depends on every
// submitted point running exactly once). Completion/ordering/exception
// semantics live one level up in SweepRunner, which is what the benches use.
//
// The optional on_worker_start hook runs once in each worker thread before
// it takes any task, with the worker's index -- the place for CPU affinity
// or NUMA placement (see pin_current_thread / pin_threads_env). Placement is
// a wall-clock concern only; simulation results never depend on it.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/util.hpp"

namespace pmsb::exp {

struct ThreadPoolOptions {
  /// Called in each worker thread, with its index in [0, threads), before
  /// the worker takes any task.
  std::function<void(unsigned worker)> on_worker_start;
};

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads) : ThreadPool(threads, ThreadPoolOptions{}) {}
  ThreadPool(unsigned threads, ThreadPoolOptions opts);

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
  void worker_loop(unsigned index);

  ThreadPoolOptions opts_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Signals workers: work or shutdown.
  std::condition_variable idle_cv_;  ///< Signals waiters: pool went idle.
  unsigned active_ = 0;              ///< Tasks currently executing.
  bool shutdown_ = false;
};

/// Pin the calling thread to CPU `cpu % hardware_concurrency`. Returns false
/// (and changes nothing) on platforms without an affinity API or when the
/// kernel rejects the mask. Topology-aware placement for long-lived workers:
/// the fabric pins worker i to CPU i so neighboring tasks keep their cache
/// affinity across rounds.
bool pin_current_thread(unsigned cpu);

/// Process-wide opt-in for worker pinning (PMSB_PIN_THREADS=1, read once).
/// Off by default: pinning helps dedicated machines and hurts shared ones.
bool pin_threads_env();

}  // namespace pmsb::exp
