// A point-to-point on-chip link wire carrying one Flit per cycle.
//
// Two-phase semantics: the driver stages the value for the *next* cycle
// during its eval (the driver's output register is loaded at the clock
// edge); consumers read `now(t)` during eval. An undriven cycle yields an
// invalid flit -- a wire, not a holding register.
//
// The wire carries no clock edge. It holds two slots indexed by cycle
// parity, each stamped with the cycle it is valid for: drive_next(t, f)
// writes slot (t+1)&1 and stamps it t+1, and now(t) returns slot t&1 only
// when its stamp is t. Readers of cycle t and drivers for cycle t+1 thus
// touch different slots, and a stale slot (a cycle that was never driven,
// or a stretch the engine skipped) can never match the cycle asked for.
// An idle link costs nothing per cycle.

#pragma once

#include "common/cell.hpp"
#include "common/util.hpp"

namespace pmsb {

class WireLink {
 public:
  /// Value on the wire during cycle t.
  const Flit& now(Cycle t) const {
    const Slot& s = slots_[t & 1];
    return s.at == t ? s.flit : kUndriven;
  }

  /// Drive the wire during cycle t, for cycle t+1. At most one driver per
  /// cycle.
  void drive_next(Cycle t, const Flit& f) {
    Slot& s = slots_[(t + 1) & 1];
    PMSB_CHECK(s.at != t + 1, "two drivers on one link in one cycle");
    s.flit = f;
    s.at = t + 1;
  }

  /// True when the wire carries nothing during cycle t and nothing has been
  /// driven for t+1 (quiescence predicate).
  bool idle(Cycle t) const { return !now(t).valid && slots_[(t + 1) & 1].at != t + 1; }

  /// No-op, kept for bench/perf/layers.cpp, which calls it and changes only
  /// with the benchmark.
  void tick() {}

 private:
  struct Slot {
    Flit flit;
    Cycle at = -1;  ///< The cycle this slot's flit is on the wire.
  };
  static constexpr Flit kUndriven{};

  Slot slots_[2];
};

}  // namespace pmsb
