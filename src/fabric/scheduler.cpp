#include "fabric/scheduler.hpp"

#include <chrono>
#include <thread>

#include "common/util.hpp"
#include "exp/thread_pool.hpp"

namespace pmsb::fabric {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

constexpr unsigned kSpinPolls = 128;  ///< Hot polls before the first yield.
constexpr unsigned kPolls = 4096;     ///< Polls (hot, then yielding) before parking.

/// The one wait escalation (see scheduler.hpp): poll `ready(yielding)` hot,
/// then with a yield between polls, until it returns true or the budget
/// runs out (the caller then parks or blocks).
template <class Ready>
void poll_briefly(Ready&& ready) {
  for (unsigned i = 0; i < kPolls; ++i) {
    const bool yielding = i >= kSpinPolls;
    if (ready(yielding)) return;
    if (yielding) std::this_thread::yield();
  }
}

}  // namespace

Scheduler::Scheduler(unsigned workers) {
  PMSB_CHECK(workers >= 1, "scheduler needs at least one worker");
  deques_.reserve(workers);
  parkers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    deques_.push_back(std::make_unique<Deque>());
    parkers_.push_back(std::make_unique<Parker>());
  }
  stats_.resize(workers);
}

std::uint64_t Scheduler::total_steals() const {
  std::uint64_t s = 0;
  for (const WorkerStats& ws : stats_) s += ws.steals;
  return s;
}

void Scheduler::start(const std::vector<SchedTask*>& tasks,
                      const std::vector<std::vector<unsigned>>& wake_lists,
                      const std::vector<unsigned>& placement) {
  PMSB_CHECK(!tasks.empty(), "scheduler run with no tasks");
  PMSB_CHECK(wake_lists.size() == tasks.size() && placement.size() == tasks.size(),
             "scheduler wake/placement tables out of sync with tasks");
  tasks_ = &tasks;
  wake_ = &wake_lists;
  home_ = &placement;
  n_tasks_ = static_cast<unsigned>(tasks.size());
  finished_.store(0, std::memory_order_relaxed);
  for (unsigned i = 0; i < n_tasks_; ++i) {
    tasks[i]->state.store(SchedTask::kReady, std::memory_order_relaxed);
    PMSB_CHECK(placement[i] < workers(), "task placed on a nonexistent worker");
    deques_[placement[i]]->q.push_back(i);
  }
  for (auto& d : deques_) d->n.store(d->q.size(), std::memory_order_relaxed);
  pending_.store(static_cast<int>(n_tasks_), std::memory_order_release);
}

void Scheduler::run(exp::ThreadPool& pool, const std::vector<SchedTask*>& tasks,
                    const std::vector<std::vector<unsigned>>& wake_lists,
                    const std::vector<unsigned>& placement) {
  start(tasks, wake_lists, placement);
  for (unsigned w = 0; w < workers(); ++w) pool.submit([this, w] { worker_loop(w); });
  pool.wait_idle();
  PMSB_CHECK(finished_.load(std::memory_order_acquire) == n_tasks_,
             "scheduler stopped with unfinished tasks");
}

void Scheduler::run(const std::vector<SchedTask*>& tasks,
                    const std::vector<std::vector<unsigned>>& wake_lists,
                    const std::vector<unsigned>& placement) {
  PMSB_CHECK(workers() == 1, "running on the calling thread needs exactly one worker");
  start(tasks, wake_lists, placement);
  worker_loop(0);
  PMSB_CHECK(finished_.load(std::memory_order_acquire) == n_tasks_,
             "scheduler stopped with unfinished tasks");
}

void Scheduler::push(unsigned w, unsigned task) {
  Deque& d = *deques_[w];
  {
    std::lock_guard<std::mutex> lk(d.mu);
    d.q.push_back(task);
    d.n.store(d.q.size(), std::memory_order_relaxed);
  }
  // seq_cst pairs with park()'s registration + recheck (Dekker): either the
  // parking worker sees pending_ > 0 and stays up, or we see it registered.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_waiters_.load(std::memory_order_seq_cst) == 0) return;
  Parker* target = nullptr;
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    // The home worker first; else any parked worker, which may steal it.
    if (parkers_[w]->parked) {
      target = parkers_[w].get();
    } else {
      for (auto& p : parkers_) {
        if (p->parked) {
          target = p.get();
          break;
        }
      }
    }
  }
  if (target != nullptr) target->cv.notify_one();
}

bool Scheduler::pop(unsigned w, unsigned* task) {
  Deque& d = *deques_[w];
  if (d.n.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lk(d.mu);
  if (d.q.empty()) return false;
  *task = d.q.front();
  d.q.pop_front();
  d.n.store(d.q.size(), std::memory_order_relaxed);
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Scheduler::steal(unsigned thief, unsigned* task) {
  const unsigned n = workers();
  for (unsigned off = 1; off < n; ++off) {
    Deque& d = *deques_[(thief + off) % n];
    if (d.n.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard<std::mutex> lk(d.mu);
    if (d.q.empty()) continue;
    // Steal from the back: the front is the victim's working set.
    *task = d.q.back();
    d.q.pop_back();
    d.n.store(d.q.size(), std::memory_order_relaxed);
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Scheduler::park(unsigned w) {
  std::unique_lock<std::mutex> lk(idle_mu_);
  idle_waiters_.fetch_add(1, std::memory_order_seq_cst);
  // Recheck under the registration: a push that saw no waiter must have
  // bumped pending_ already.
  if (pending_.load(std::memory_order_seq_cst) <= 0 &&
      finished_.load(std::memory_order_acquire) != n_tasks_) {
    Parker& p = *parkers_[w];
    p.parked = true;
    // Timed: the termination notify and rare wake races are both bounded by
    // the timeout instead of trusting every signal edge.
    p.cv.wait_for(lk, std::chrono::microseconds(200));
    p.parked = false;
  }
  idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void Scheduler::wake_neighbors(unsigned task) {
  const std::vector<SchedTask*>& tasks = *tasks_;
  for (unsigned nb : (*wake_)[task]) {
    SchedTask* t = tasks[nb];
    // seq_cst pairs with the blocking worker's state store + recheck (see
    // scheduler.hpp); a successful CAS means WE requeue it, and nobody else
    // will.
    std::uint8_t expect = SchedTask::kBlocked;
    if (t->state.load(std::memory_order_seq_cst) != expect ||
        !t->state.compare_exchange_strong(expect, SchedTask::kReady,
                                          std::memory_order_seq_cst))
      continue;
    const std::uint64_t waited =
        now_ns() - t->blocked_since_ns.load(std::memory_order_relaxed);
    if (t->blocked_reason.load(std::memory_order_relaxed) ==
        static_cast<std::uint8_t>(Advance::kBlockedOnFull))
      t->blocked_on_full_ns.fetch_add(waited, std::memory_order_relaxed);
    else
      t->blocked_on_empty_ns.fetch_add(waited, std::memory_order_relaxed);
    push((*home_)[nb], nb);
  }
}

void Scheduler::run_slice(unsigned w, unsigned ti) {
  WorkerStats& ws = stats_[w];
  SchedTask* t = (*tasks_)[ti];
  const Deque& own = *deques_[w];
  t->state.store(SchedTask::kRunning, std::memory_order_relaxed);
  std::uint64_t t0 = now_ns();
  for (;;) {
    const Advance r = t->advance();
    const std::uint64_t t1 = now_ns();
    ws.active_ns += t1 - t0;
    ++ws.slices;
    t->active_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    t->slices.fetch_add(1, std::memory_order_relaxed);
    t0 = t1;
    if (r == Advance::kProgress) {
      wake_neighbors(ti);
      continue;
    }
    if (r == Advance::kFinished) {
      t->state.store(SchedTask::kDone, std::memory_order_release);
      // Neighbors blocked on this task can still need a final wake (their
      // last chunk runs on the lookahead past our target).
      wake_neighbors(ti);
      if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_tasks_) {
        std::lock_guard<std::mutex> lk(idle_mu_);
        for (auto& p : parkers_) p->cv.notify_all();
      }
      return;
    }
    // Blocked. A neighbor running on another worker usually catches up
    // within microseconds, so wait for it here -- unless other work is
    // queued on this worker.
    bool resume = false;
    poll_briefly([&](bool) {
      if (own.n.load(std::memory_order_relaxed) > 0) return true;
      resume = t->can_advance();
      return resume;
    });
    const std::uint64_t t2 = now_ns();
    ws.idle_ns += t2 - t0;
    t->wait_ns.fetch_add(t2 - t0, std::memory_order_relaxed);
    t0 = t2;
    if (resume) continue;

    t->blocked_reason.store(static_cast<std::uint8_t>(r), std::memory_order_relaxed);
    t->blocked_since_ns.store(t2, std::memory_order_relaxed);
    t->state.store(SchedTask::kBlocked, std::memory_order_seq_cst);
    // Dekker recheck closing the lost-wakeup window (see scheduler.hpp).
    if (t->can_advance()) {
      std::uint8_t expect = SchedTask::kBlocked;
      if (t->state.compare_exchange_strong(expect, SchedTask::kReady,
                                           std::memory_order_seq_cst))
        push((*home_)[ti], ti);
    }
    return;
  }
}

void Scheduler::worker_loop(unsigned w) {
  WorkerStats& ws = stats_[w];
  const std::vector<SchedTask*>& tasks = *tasks_;
  // After a park that found nothing, go straight back to parking instead
  // of polling through the whole escalation again.
  bool parked_idle = false;
  for (;;) {
    unsigned ti = 0;
    bool stolen = false;
    if (!pop(w, &ti)) {
      const std::uint64_t t0 = now_ns();
      // Home wakes land on our own deque, so poll it hot first; steal only
      // once the hunt has started yielding.
      bool got = false;
      auto hunt = [&](bool yielding) {
        got = pop(w, &ti) || (yielding && (stolen = steal(w, &ti)));
        return got || finished_.load(std::memory_order_acquire) == n_tasks_;
      };
      if (parked_idle)
        hunt(true);
      else
        poll_briefly(hunt);
      if (!got && finished_.load(std::memory_order_acquire) != n_tasks_) park(w);
      ws.idle_ns += now_ns() - t0;
      if (!got) {
        if (finished_.load(std::memory_order_acquire) == n_tasks_) return;
        parked_idle = true;
        continue;
      }
    }
    parked_idle = false;
    if (stolen) {
      ++ws.steals;
      tasks[ti]->steals.fetch_add(1, std::memory_order_relaxed);
    }
    run_slice(w, ti);
  }
}

}  // namespace pmsb::fabric
