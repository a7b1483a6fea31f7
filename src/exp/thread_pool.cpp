#include "exp/thread_pool.hpp"

#include <utility>

namespace pmsb::exp {

ThreadPool::ThreadPool(unsigned threads) {
  PMSB_CHECK(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  PMSB_CHECK(queue_.empty(), "thread pool joined with work still queued");
}

void ThreadPool::submit(std::function<void()> fn) {
  PMSB_CHECK(fn != nullptr, "null task submitted to thread pool");
  {
    std::lock_guard<std::mutex> lk(mu_);
    PMSB_CHECK(!shutdown_, "submit() after thread pool shutdown began");
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return !queue_.empty() || shutdown_; });
      // Graceful shutdown: exit only once the queue has fully drained.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace pmsb::exp
