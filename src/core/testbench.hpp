// Testbench harness: a switch (any of the cycle-accurate variants), one
// traffic source per input, one sink per output, an optional verification
// scoreboard, all registered with a simulation engine. Used by the gtest
// suites, the bench binaries, and the examples, so they all drive the
// device under test the same way.

#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "check/invariants.hpp"
#include "core/scoreboard.hpp"
#include "core/switch.hpp"
#include "sim/engine.hpp"
#include "traffic/generators.hpp"

namespace pmsb {

enum class PatternKind { kUniform, kPermutation, kHotspot };

struct TrafficSpec {
  ArrivalKind arrivals = ArrivalKind::kGeometric;
  PatternKind pattern = PatternKind::kUniform;
  double load = 0.5;
  double hot_fraction = 0.5;  ///< For kHotspot (hot output = 0).
  std::uint64_t seed = 1;
  double mean_burst_cells = 8.0;  ///< For ArrivalKind::kBursty.
};

/// Harness around any switch type with in_link()/out_link()/events().
template <typename SwitchT, typename ConfigT>
class Testbench {
 public:
  Testbench(const ConfigT& cfg, unsigned n_ports, const CellFormat& fmt,
            const TrafficSpec& spec, bool with_scoreboard = true)
      : sw_(cfg), scoreboard_(n_ports, n_ports, fmt) {
    Rng seeder(spec.seed);
    switch (spec.pattern) {
      case PatternKind::kUniform:
        dests_ = std::make_unique<UniformDest>(n_ports);
        break;
      case PatternKind::kPermutation: {
        Rng r = seeder.split();
        dests_ = std::make_unique<PermutationDest>(random_permutation(n_ports, r));
        break;
      }
      case PatternKind::kHotspot:
        dests_ = std::make_unique<HotspotDest>(n_ports, 0, spec.hot_fraction);
        break;
    }
    for (unsigned i = 0; i < n_ports; ++i)
      sources_.push_back(std::make_unique<CellSource>(i, &sw_.in_link(i), fmt, dests_.get(),
                                                      spec.arrivals, spec.load, seeder.split(),
                                                      spec.mean_burst_cells));
    for (unsigned o = 0; o < n_ports; ++o)
      sinks_.push_back(std::make_unique<CellSink>(o, &sw_.out_link(o), fmt));

    if (with_scoreboard) scoreboard_.attach(sw_, sources_, sinks_);
    for (auto& s : sources_) engine_.add(s.get());
    engine_.add(&sw_);
    for (auto& s : sinks_) engine_.add(s.get());

    // Invariant checking (src/check/) rides along on every harnessed run
    // when requested via PMSB_CHECK=1 (or the pmsb_check CMake option).
    // Scoreboard and checker each hold their own EventHub subscription,
    // so attachment order no longer matters.
    if constexpr (std::is_same_v<SwitchT, PipelinedSwitch> ||
                  std::is_same_v<SwitchT, DualPipelinedSwitch>) {
      if (check::env_enabled()) {
        attach_checker();
        enforce_checker_ = true;
      }
    }
  }

  /// PMSB_CHECK=1 runs enforce the invariants at teardown: any recorded
  /// violation aborts loudly (skipped for deliberately-faulted DUTs, whose
  /// violations are the expected output of the fault demo).
  ~Testbench() {
    if (!enforce_checker_ || !checker_ || checker_->ok()) return;
    if constexpr (std::is_same_v<SwitchT, PipelinedSwitch>) {
      if (!sw_.fault_plan().none()) return;
    }
    PMSB_CHECK(checker_->ok(),
               "PMSB_CHECK run recorded " + std::to_string(checker_->total_violations()) +
                   " invariant violations; first: " +
                   checker_->violations().front().message);
  }

  void run(Cycle cycles) { engine_.run(cycles); }

  /// Stop injecting and run until the switch drains (or `max` cycles pass).
  /// Returns true if fully drained.
  bool drain(Cycle max = 100000) {
    for (auto& s : sources_) s->set_enabled(false);
    const bool ok = engine_.run_until([&](Cycle) { return sw_.drained(); }, max);
    if (ok) engine_.run(4 * sw_.config().n_ports + 8);  // Flush trailing wires into sinks.
    return ok;
  }

  SwitchT& dut() { return sw_; }
  Engine& engine() { return engine_; }
  Scoreboard& scoreboard() { return scoreboard_; }

  /// Attach (or return the already-attached) invariant checker. Only
  /// instantiable for the switch types the checker supports.
  check::InvariantChecker& attach_checker() {
    if (!checker_) {
      checker_ = std::make_unique<check::InvariantChecker>();
      checker_->attach(sw_, engine_);
    }
    return *checker_;
  }
  /// Null unless attach_checker() ran (directly or via PMSB_CHECK=1).
  check::InvariantChecker* checker() { return checker_.get(); }

  std::uint64_t injected() const {
    std::uint64_t total = 0;
    for (const auto& s : sources_) total += s->cells_injected();
    return total;
  }
  std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (const auto& s : sinks_) total += s->cells_delivered();
    return total;
  }

 private:
  SwitchT sw_;
  Engine engine_;
  Scoreboard scoreboard_;
  std::unique_ptr<check::InvariantChecker> checker_;
  bool enforce_checker_ = false;
  std::unique_ptr<DestPattern> dests_;
  std::vector<std::unique_ptr<CellSource>> sources_;
  std::vector<std::unique_ptr<CellSink>> sinks_;
};

using PipelinedTestbench = Testbench<PipelinedSwitch, SwitchConfig>;

}  // namespace pmsb
