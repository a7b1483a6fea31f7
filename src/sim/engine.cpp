#include "sim/engine.hpp"

#include <cstdlib>

namespace pmsb {

bool Engine::idle_skip_env_default() {
  static const bool on = [] {
    const char* v = std::getenv("PMSB_IDLE_SKIP");
    return v == nullptr || !(v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

bool Engine::quiescent_at(Cycle t, Cycle* wake) const {
  Cycle w = kNeverWake;
  for (const Component* c : components_) {
    if (!c->is_quiescent(t)) return false;
    const Cycle cw = c->next_wake(t);
    if (cw < w) w = cw;
  }
  if (wake != nullptr) *wake = w;
  return true;
}

void Engine::skip_to(Cycle target) {
  PMSB_CHECK(can_skip(), "cannot skip cycles past a cycle observer");
  PMSB_CHECK(target > now_, "skip_to target must be ahead of now()");
  const Cycle from = now_;
  Cycle n = target - now_;
  for (Component* c : components_) c->skip(now_, n);
  if (metrics_ != nullptr) {
    // Replay every sample boundary the stepped loop would have hit: step()
    // samples at the end of cycle t when the countdown reaches zero, with
    // sample(t) receiving the just-finished cycle.
    while (n >= sample_countdown_) {
      now_ += sample_countdown_;
      n -= sample_countdown_;
      sample_countdown_ = sample_period_;
      metrics_->sample(now_ - 1);
    }
    sample_countdown_ -= n;
  }
  now_ = target;
  for (CycleObserver* o : observers_) o->on_skip(from, target);
}

void Engine::add(Component* c) {
  PMSB_CHECK(c != nullptr, "null component");
  components_.push_back(c);
  if (c->has_commit()) committers_.push_back(c);
}

void Engine::add_cycle_observer(CycleObserver* o) {
  PMSB_CHECK(o != nullptr, "null cycle observer");
  observers_.push_back(o);
  if (!o->skips_ok()) ++pinning_observers_;
}

void Engine::set_metrics(obs::MetricsRegistry* registry, Cycle period) {
  PMSB_CHECK(registry == nullptr || period > 0, "sampling period must be positive");
  metrics_ = registry;
  sample_period_ = period;
  // Preserve the sampling phase: samples land on cycles where the cycle
  // count after the step is a multiple of the period, exactly as the
  // modulo formulation did.
  if (registry != nullptr) sample_countdown_ = period - (now_ % period);
}

}  // namespace pmsb
