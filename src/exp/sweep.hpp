// SweepRunner: run a vector of INDEPENDENT sweep points in parallel and
// return their results in submission order.
//
// Every paper experiment is a sweep over (architecture, n, load, seed)
// points, each of which builds its own model, Rng, and metrics from scratch
// -- embarrassingly parallel work that the seed repo ran strictly
// sequentially. The determinism contract (DESIGN.md "Parallel sweeps"):
//
//   * A sweep point is a closure owning everything it touches mutably
//     (model, Rng(seed), MetricsRegistry). Closures never share mutable
//     state; shared inputs (configs) are read-only.
//   * Results come back indexed by submission order, so tables and
//     BENCH_*.json built from them are byte-identical at ANY thread count
//     (including 1, which runs inline on the calling thread with no pool).
//   * A closure that throws has its exception captured and rethrown on the
//     caller -- the earliest-submitted failure wins, after all points end.
//
// Thread-count resolution (first match wins):
//   1. set_thread_override() -- benches wire their --threads flag to this;
//   2. the PMSB_THREADS environment variable;
//   3. std::thread::hardware_concurrency().

#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/util.hpp"
#include "exp/thread_pool.hpp"

namespace pmsb::exp {

/// Resolved worker count for sweeps (>= 1): override, then PMSB_THREADS,
/// then hardware_concurrency.
unsigned thread_count();

/// Force the sweep width (0 clears the override). Not thread-safe: call
/// from main before the first sweep.
void set_thread_override(unsigned threads);

/// Wall-clock stopwatch for the BenchJson runtime block.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class SweepRunner {
 public:
  /// threads = 0 resolves through thread_count(). With 1 thread no pool is
  /// created and every point runs inline on the caller.
  explicit SweepRunner(unsigned threads = 0)
      : threads_(threads == 0 ? thread_count() : threads) {
    PMSB_CHECK(threads_ >= 1, "sweep runner needs at least one thread");
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  }

  unsigned threads() const { return threads_; }

  /// Run every closure in `points`; result i is points[i]()'s return value.
  template <typename Fn>
  auto run(std::vector<Fn> points) -> std::vector<decltype(points.front()())> {
    using R = decltype(points.front()());
    const std::size_t n = points.size();
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);

    if (!pool_) {
      for (std::size_t i = 0; i < n; ++i) slots[i].emplace(points[i]());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        pool_->submit([&, i] {
          try {
            slots[i].emplace(points[i]());
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      pool_->wait_idle();
      for (std::size_t i = 0; i < n; ++i) {
        if (errors[i]) std::rethrow_exception(errors[i]);
      }
    }

    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(*slots[i]));
    return out;
  }

  /// Map `fn` over `items`; result i is fn(items[i]). `fn` must be
  /// const-callable from several threads at once (capture shared inputs by
  /// value or const reference only).
  template <typename Item, typename Fn>
  auto map(const std::vector<Item>& items, Fn fn)
      -> std::vector<decltype(fn(items.front()))> {
    using R = decltype(fn(items.front()));
    std::vector<std::function<R()>> points;
    points.reserve(items.size());
    for (const Item& item : items)
      points.push_back([&fn, &item] { return fn(item); });
    return run(std::move(points));
  }

 private:
  unsigned threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pmsb::exp
