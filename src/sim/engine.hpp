// Two-phase clocked simulation kernel.
//
// Cycle-accuracy convention (DESIGN.md section 4):
//   * During cycle t, every component's eval(t) runs. eval() may only read
//     state that was committed at the end of cycle t-1 (register outputs,
//     SRAM contents, link values driven for cycle t) and may stage new state.
//   * After all eval()s, every component's commit(t) runs, making the staged
//     state visible for cycle t+1 ("the clock edge").
//
// Because eval() never observes same-cycle writes, eval order across
// components is irrelevant -- exactly like synchronous hardware with only
// registered inter-component signals. Within a component, helper sub-blocks
// may be combinationally chained as long as the component evaluates them in
// dataflow order itself.
//
// Wires (sim/wire.hpp) and input latches (core/input_latches.hpp) keep this
// timing with no clock edge: a wire stamps each value with its cycle, and a
// switch reads its latches before it loads them.
//
// Kernel-loop notes: step()/run()/run_until() are header-inline so the
// per-cycle loop flattens into the caller; components that declare an empty
// clock edge (has_commit() == false) are skipped in the commit sweep; and
// metrics sampling costs one predictable counter decrement per cycle (a
// countdown, not a modulo) with a single null test when no registry is
// attached. run_until() takes its predicate as a template parameter so the
// per-cycle termination check inlines instead of going through
// std::function.

#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/util.hpp"
#include "obs/metrics.hpp"

namespace pmsb {

/// next_wake() value meaning "never wakes on its own" (purely reactive
/// components: switches, sinks, taps).
inline constexpr Cycle kNeverWake = std::numeric_limits<Cycle>::max();

/// A clocked hardware block (or testbench element).
class Component {
 public:
  virtual ~Component() = default;

  /// Combinational phase of cycle t: read committed state, stage updates.
  virtual void eval(Cycle t) = 0;

  /// Clock edge at the end of cycle t: commit staged updates.
  virtual void commit(Cycle t) = 0;

  /// Override to return false when commit() is a no-op; the engine then
  /// leaves this component out of the commit sweep entirely.
  virtual bool has_commit() const { return true; }

  // --- Quiescence (semantics-preserving idle-cycle skipping) --------------
  //
  // A component is *quiescent at cycle t* when executing eval(t)/commit(t)
  // in its current state would change nothing observable: no staged state,
  // no driven wires, no events, no RNG draws -- at most internal per-cycle
  // counters, which skip() must compensate. When EVERY component of an
  // engine is quiescent, the engine may advance the clock directly to the
  // earliest next_wake() instead of stepping, with bit-identical results.
  // The default (never quiescent) is always safe.

  /// True when eval(t)+commit(t) would be a no-op (see above). Must stay
  /// true for every cycle in [t, next_wake(t)) if no input changes -- and
  /// none can change while all components are quiescent.
  virtual bool is_quiescent(Cycle t) const {
    (void)t;
    return false;
  }

  /// Earliest cycle at which this component must execute again (its next
  /// scheduled arrival / slot boundary). Only consulted while quiescent.
  virtual Cycle next_wake(Cycle t) const {
    (void)t;
    return kNeverWake;
  }

  /// The clock jumped from t to t + n without stepping (all n cycles were
  /// quiescent). Compensate per-cycle counters (e.g. stats.cycles) and
  /// countdowns here so a skipped run is indistinguishable from a stepped
  /// one.
  virtual void skip(Cycle t, Cycle n) {
    (void)t;
    (void)n;
  }

  /// For diagnostics.
  virtual std::string name() const { return "component"; }
};

/// Post-commit inspection hook (the invariant checkers of src/check/): the
/// engine calls on_cycle_end(t) after every component's commit(t), when all
/// state for cycle t+1 is visible -- the only point in the cycle where
/// cross-component conservation invariants are meaningful. Observers never
/// mutate simulation state.
///
/// An observer pins its engine to stepping unless it opts in to idle
/// skipping with skips_ok(): the engine then may jump over quiescent
/// stretches, and calls on_skip(from, to) instead of on_cycle_end for each
/// cycle in [from, to). The observer checks there what must hold across a
/// quiescent interval (nothing happened) rather than what holds per cycle.
class CycleObserver {
 public:
  virtual ~CycleObserver() = default;
  virtual void on_cycle_end(Cycle t) = 0;

  /// True if on_skip() stands in for the per-cycle calls (see above).
  virtual bool skips_ok() const { return false; }

  /// The engine jumped from cycle `from` to `to` without stepping; all
  /// components were quiescent throughout. Called after their skip() hooks.
  virtual void on_skip(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }
};

/// Drives a set of components through clock cycles.
///
/// Components are not owned; the caller keeps them alive for the engine's
/// lifetime (they are usually members of a testbench struct).
class Engine {
 public:
  void add(Component* c);

  /// Register a post-commit observer (not owned). With none registered the
  /// per-cycle cost is one empty-vector test, preserving the hot-path speed
  /// of unchecked runs. An observer that is not skips_ok() disables idle
  /// skipping on this engine.
  void add_cycle_observer(CycleObserver* o);

  /// Advance exactly one cycle.
  void step() {
    const Cycle t = now_;
    for (Component* c : components_) c->eval(t);
    for (Component* c : committers_) c->commit(t);
    for (CycleObserver* o : observers_) o->on_cycle_end(t);
    ++now_;
    if (metrics_ != nullptr && --sample_countdown_ == 0) {
      sample_countdown_ = sample_period_;
      metrics_->sample(t);
    }
  }

  /// Run `cycles` more cycles. Returns the cycle count after running.
  ///
  /// When idle skipping is enabled and can_skip() (no attached observer
  /// needs every cycle), the loop polls all-component quiescence and jumps
  /// straight to the earliest next_wake(). Results are bit-identical to the stepped run by the
  /// Component quiescence contract; the poll cadence (every cycle while
  /// skipping is productive, every kSkipPollPeriod cycles after a failed
  /// poll) only affects wall-clock, never outcomes.
  Cycle run(Cycle cycles) {
    const Cycle target = now_ + cycles;
    if (!idle_skip_ || !can_skip()) {
      while (now_ < target) step();
      return now_;
    }
    Cycle next_poll = now_;
    while (now_ < target) {
      if (now_ >= next_poll) {
        Cycle wake = kNeverWake;
        if (quiescent_at(now_, &wake) && wake > now_) {
          skip_to(wake < target ? wake : target);
          continue;
        }
        next_poll = now_ + kSkipPollPeriod;
      }
      step();
    }
    return now_;
  }

  /// Run until `pred(t)` is true at the *end* of a cycle, or `max_cycles`
  /// elapse. Returns true if the predicate fired.
  template <typename Pred>
  bool run_until(Pred&& pred, Cycle max_cycles) {
    for (Cycle i = 0; i < max_cycles; ++i) {
      step();
      if (pred(now_ - 1)) return true;
    }
    return false;
  }

  Cycle now() const { return now_; }

  /// Attach a metrics registry: after the commit phase of every `period`-th
  /// cycle the engine calls registry->sample(t), pulling all registered
  /// gauges. Pass nullptr to detach. With no registry attached (the
  /// default), stepping pays a single null-pointer test per cycle.
  void set_metrics(obs::MetricsRegistry* registry, Cycle period = 1024);

  obs::MetricsRegistry* metrics() const { return metrics_; }
  Cycle sample_period() const { return sample_period_; }

  // --- Idle-cycle skipping ------------------------------------------------

  /// Enable/disable quiescence-based skipping for this engine. The initial
  /// value comes from PMSB_IDLE_SKIP ("0" disables; default on). Skipping
  /// never changes results -- this switch exists for A/B validation and for
  /// embedded engines (fabric nodes) whose skipping is coordinated
  /// externally by the task that owns them.
  void set_idle_skip(bool on) { idle_skip_ = on; }
  bool idle_skip() const { return idle_skip_; }

  /// Process-wide default for idle skipping (PMSB_IDLE_SKIP, read once).
  static bool idle_skip_env_default();

  /// True when skipping is structurally permitted: no attached observer
  /// needs to see every cycle (each is skips_ok()).
  bool can_skip() const { return pinning_observers_ == 0; }

  /// True when every component is quiescent at cycle t; on success *wake is
  /// the minimum next_wake() over all components (kNeverWake if none wakes).
  bool quiescent_at(Cycle t, Cycle* wake) const;

  /// Jump the clock to `target` (> now()) without stepping. The caller
  /// guarantees every cycle in [now(), target) is quiescent for every
  /// component. Calls each component's skip() hook, advances now_ and
  /// replays metrics sample boundaries exactly as stepping would have, then
  /// calls each observer's on_skip().
  void skip_to(Cycle target);

 private:
  static constexpr Cycle kSkipPollPeriod = 16;

  std::vector<Component*> components_;
  std::vector<Component*> committers_;  ///< components_ minus empty clock edges.
  std::vector<CycleObserver*> observers_;
  unsigned pinning_observers_ = 0;  ///< Observers that are not skips_ok().
  Cycle now_ = 0;  ///< Next cycle to execute.
  obs::MetricsRegistry* metrics_ = nullptr;
  Cycle sample_period_ = 1024;
  Cycle sample_countdown_ = 0;  ///< Cycles until the next sample() call.
  bool idle_skip_ = idle_skip_env_default();
};

}  // namespace pmsb
