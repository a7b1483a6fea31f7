// End-to-end verification scoreboard for the cycle-accurate switches.
//
// Wiring: CellSources report injections; the switch reports per-input
// accept/drop decisions (which occur in per-input arrival order); CellSinks
// report re-assembled deliveries. The scoreboard checks, independently of
// the device under test:
//
//   * payload integrity -- the delivered word sequence is bit-exact;
//   * per-(input,output) FIFO order -- a delivered cell must be the oldest
//     outstanding cell of its (source, destination) pair;
//   * conservation -- injected = delivered + dropped + resident;
//   * latency accounting (head-in to head-out), with warmup support.
//
// Failures are recorded (not aborted) so gtest can report them.

#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/cell.hpp"
#include "core/switch.hpp"
#include "stats/stats.hpp"
#include "traffic/generators.hpp"

namespace pmsb {

class Scoreboard {
 public:
  Scoreboard(unsigned n_inputs, unsigned n_outputs, const CellFormat& fmt);

  /// Hook everything up. Works for any switch exposing events() (an
  /// EventHub); the scoreboard subscribes additively, so other observers on
  /// the same switch keep working.
  template <typename SwitchT>
  void attach(SwitchT& sw, std::vector<std::unique_ptr<CellSource>>& sources,
              std::vector<std::unique_ptr<CellSink>>& sinks) {
    for (auto& src : sources)
      src->set_on_inject([this](const CellSource::Injection& inj) { on_inject(inj); });
    for (auto& snk : sinks)
      snk->set_on_deliver([this](const CellSink::Delivery& d) { on_deliver(d); });
    SwitchEvents ev;
    ev.on_accept = [this](unsigned i, Cycle a0, Cycle t0) { on_accept(i, a0, t0); };
    ev.on_drop = [this](unsigned i, Cycle a0, DropReason why) { on_drop(i, a0, why); };
    events_sub_ = sw.events().subscribe(std::move(ev));
  }

  // Raw entry points (used directly by tests and by the dual switch).
  void on_inject(const CellSource::Injection& inj);
  void on_accept(unsigned input, Cycle a0, Cycle t0);
  void on_drop(unsigned input, Cycle a0, DropReason why);
  void on_deliver(const CellSink::Delivery& d);

  /// When link pipelining (sim/link_pipeline.hpp) sits between the sources
  /// and the switch, the switch observes each head `delay` cycles after it
  /// left the generator; tell the scoreboard so its arrival-cycle
  /// cross-checks account for it.
  void set_input_wire_delay(Cycle delay) { input_delay_ = delay; }

  /// All checks passed so far.
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// After draining: nothing outstanding anywhere.
  bool fully_drained() const;

  std::uint64_t injected() const { return injected_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

  LatencyStats& latency() { return latency_; }
  const LatencyStats& latency() const { return latency_; }

 private:
  struct Record {
    std::uint64_t uid;
    unsigned input;
    unsigned dest;
    Cycle head_on_wire;
  };

  void fail(std::string msg);

  unsigned n_in_;
  unsigned n_out_;
  CellFormat fmt_;

  /// Injected, awaiting the switch's accept/drop decision (per input, FIFO).
  std::vector<std::deque<Record>> awaiting_decision_;
  /// Accepted, awaiting delivery (per input x output, FIFO).
  std::vector<std::deque<Record>> in_flight_;  // [input * n_out_ + dest]

  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;

  LatencyStats latency_;
  std::vector<std::string> errors_;
  Cycle input_delay_ = 0;
  Subscription events_sub_;  ///< Our slot on the DUT's EventHub.
};

}  // namespace pmsb
