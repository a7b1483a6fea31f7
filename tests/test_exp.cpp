// Tests for the parallel experiment runner (src/exp): ThreadPool execution /
// ordering / graceful-shutdown semantics, SweepRunner submission-order
// results and exception propagation, thread-count resolution, and -- the
// property every bench table rests on -- byte-identical sweep results at any
// thread count, for both the slot-time models and the cycle-accurate switch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "arch/shared_buffer.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"

namespace pmsb {
namespace {

using bench::CycleRun;
using bench::SlotRun;

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  exp::ThreadPool pool(4);
  for (int i = 0; i < 100; ++i)
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SingleWorkerExecutesInFifoOrder) {
  std::vector<int> order;
  std::mutex mu;
  {
    exp::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i)
      pool.submit([&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    pool.wait_idle();
  }
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  // Destroying the pool with work still queued must RUN that work, not drop
  // it (sweep determinism depends on every submitted point executing).
  std::atomic<int> ran{0};
  {
    exp::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    // No wait_idle(): the destructor must finish the queue itself.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WaitIdleWaitsForExecutingTasks) {
  std::atomic<bool> done{false};
  exp::ThreadPool pool(2);
  pool.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

// ---- SweepRunner -----------------------------------------------------------

TEST(SweepRunner, ResultsComeBackInSubmissionOrder) {
  exp::SweepRunner runner(4);
  std::vector<std::function<int()>> points;
  for (int i = 0; i < 24; ++i)
    points.push_back([i] {
      // Reverse-staggered sleeps: late submissions finish first, so only
      // the index discipline (not completion order) can keep this sorted.
      std::this_thread::sleep_for(std::chrono::microseconds((24 - i) * 50));
      return i;
    });
  const std::vector<int> r = runner.run(std::move(points));
  ASSERT_EQ(r.size(), 24u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(r[static_cast<std::size_t>(i)], i);
}

TEST(SweepRunner, SingleThreadRunsInlineOnCaller) {
  exp::SweepRunner runner(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::function<std::thread::id()>> points;
  for (int i = 0; i < 4; ++i)
    points.push_back([] { return std::this_thread::get_id(); });
  for (std::thread::id id : runner.run(std::move(points))) EXPECT_EQ(id, caller);
}

TEST(SweepRunner, EarliestSubmittedExceptionWins) {
  exp::SweepRunner runner(4);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> points;
  points.push_back([&] {
    completed.fetch_add(1);
    return 0;
  });
  points.push_back([]() -> int { throw std::runtime_error("first failure"); });
  points.push_back([&] {
    completed.fetch_add(1);
    return 2;
  });
  points.push_back([]() -> int { throw std::runtime_error("second failure"); });
  try {
    runner.run(std::move(points));
    FAIL() << "expected the sweep to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
  // All non-throwing points still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 2);
}

TEST(SweepRunner, MapPreservesItemOrder) {
  exp::SweepRunner runner(4);
  const std::vector<int> items = {5, 3, 9, 1, 7};
  const std::vector<int> r = runner.map(items, [](int v) { return v * v; });
  ASSERT_EQ(r.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) EXPECT_EQ(r[i], items[i] * items[i]);
}

// ---- thread-count resolution -----------------------------------------------

TEST(ThreadCount, OverrideBeatsEnvironment) {
  exp::set_thread_override(3);
  EXPECT_EQ(exp::thread_count(), 3u);
  exp::set_thread_override(0);  // Clear for the rest of the suite.
  EXPECT_GE(exp::thread_count(), 1u);
}

// ---- determinism: identical results at any thread count --------------------

std::vector<SlotRun> slot_sweep(unsigned threads) {
  exp::SweepRunner runner(threads);
  std::vector<std::function<SlotRun()>> points;
  for (double load : {0.5, 0.7, 0.9})
    for (std::uint64_t seed : {11ull, 12ull}) {
      points.push_back([load, seed] {
        return bench::run_uniform([] { return std::make_unique<SharedBufferModel>(8, 64); },
                                  8, load, 20000, seed);
      });
    }
  return runner.run(std::move(points));
}

TEST(SweepDeterminism, SlotModelResultsIdenticalAcrossThreadCounts) {
  const std::vector<SlotRun> one = slot_sweep(1);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) hw = 4;  // Still exercise the pool path on 1-CPU machines.
  const std::vector<SlotRun> many = slot_sweep(hw);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    // Exact equality, not tolerance: each point owns its Rng and model, so
    // the arithmetic sequence is identical no matter which thread ran it.
    EXPECT_EQ(one[i].throughput, many[i].throughput) << "point " << i;
    EXPECT_EQ(one[i].loss, many[i].loss) << "point " << i;
    EXPECT_EQ(one[i].mean_latency, many[i].mean_latency) << "point " << i;
    EXPECT_EQ(one[i].p99_latency, many[i].p99_latency) << "point " << i;
  }
}

std::vector<CycleRun> cycle_sweep(unsigned threads) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  exp::SweepRunner runner(threads);
  std::vector<std::function<CycleRun()>> points;
  for (double load : {0.6, 0.9})
    for (std::uint64_t seed : {21ull, 22ull}) {
      TrafficSpec spec;
      spec.load = load;
      spec.seed = seed;
      points.push_back([cfg, spec] { return bench::run_pipelined(cfg, spec, 6000, 600); });
    }
  return runner.run(std::move(points));
}

TEST(SweepDeterminism, CycleAccurateResultsIdenticalAcrossThreadCounts) {
  const std::vector<CycleRun> one = cycle_sweep(1);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) hw = 4;
  const std::vector<CycleRun> many = cycle_sweep(hw);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].stats.accepted, many[i].stats.accepted) << "point " << i;
    EXPECT_EQ(one[i].stats.read_grants, many[i].stats.read_grants) << "point " << i;
    EXPECT_EQ(one[i].output_utilization, many[i].output_utilization) << "point " << i;
    EXPECT_EQ(one[i].mean_buffer_occupancy, many[i].mean_buffer_occupancy) << "point " << i;
    EXPECT_EQ(one[i].mean_queue_depth, many[i].mean_queue_depth) << "point " << i;
    EXPECT_EQ(one[i].buffer_peak, many[i].buffer_peak) << "point " << i;
    EXPECT_EQ(one[i].head_latency.mean(), many[i].head_latency.mean()) << "point " << i;
  }
}

}  // namespace
}  // namespace pmsb
