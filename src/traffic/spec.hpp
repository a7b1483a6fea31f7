// Textual workload specs -- one tiny grammar shared by benches, tests, the
// fabric config and the fuzz corpus, so "uniform:0.8" means the same thing
// everywhere instead of each bench growing its own flag parser:
//
//   uniform[:LOAD]               uniformly random destinations
//   permutation[:LOAD]           a fixed random bijection (contention-free)
//   hotspot:FRAC[,LOAD]          fraction FRAC of traffic to one hot output
//   hotsenders:FRAC[,LOAD]       FRAC of the inputs send only to the hot
//                                output; the rest send uniform background
//                                over the non-hot outputs
//   incast:FAN[,LOAD]            inputs 0..FAN-1 converge on one output
//   bursty:LOAD[,MEAN_BURST]     geometric on/off bursts, uniform dests
//   pareto:LOAD[,SHAPE[,MEAN_BURST]]  heavy-tailed bursts, uniform dests
//
// LOAD is optional everywhere it appears; when omitted, the consumer's own
// load setting applies (GeneratorSpec::load_or). parse() throws
// std::invalid_argument with a message naming the offending spec -- callers
// that must not throw (config validation) wrap it.
//
// Fabrics run every destination kind through one arrival process
// (traffic/arrivals.hpp: a Bernoulli trial per cycle, a lossless backlog) on
// both transports. Bursty and pareto shape arrivals at slot level only
// (make_slot_traffic), so fabrics reject them. Output 0 is the hot output
// or the incast sink. A cell-fabric node cannot address itself, so its
// patterns are built with SelfRule::kExcluded:
//
//   uniform      uniform over the other nodes
//   permutation  a random single cycle (a bijection without fixed points)
//   hotspot      the same hot draw; a miss, or the hot node's own hit, goes
//                uniform over the other nodes
//   hotsenders,  the fixed target unless it is the source; background is
//   incast       uniform over the outputs other than the target and the source

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "traffic/generators.hpp"

namespace pmsb::traffic {

struct GeneratorSpec {
  enum class Kind { kUniform, kPermutation, kHotspot, kHotSenders, kIncast, kBursty, kPareto };

  Kind kind = Kind::kUniform;
  std::optional<double> load;  ///< Spec-embedded load, overrides the caller's.
  double hot_fraction = 0.3;   ///< kHotspot / kHotSenders: hot share.
  unsigned fan_in = 0;         ///< kIncast: converging inputs (0 = half of n).
  double mean_burst = 8.0;     ///< kBursty / kPareto: mean burst length (cells).
  double shape = 1.4;          ///< kPareto: tail index (> 1).

  /// Parse the grammar above; throws std::invalid_argument on any error.
  static GeneratorSpec parse(const std::string& text);

  /// Canonical round-trippable form, e.g. "hotspot:0.25,0.9".
  std::string describe() const;

  /// The load to run at: the spec's own if present, else `fallback`.
  double load_or(double fallback) const { return load.has_value() ? *load : fallback; }

  /// Destination pattern over `n` endpoints, under the transport's self
  /// rule (see the table above). Bursty/pareto shape arrivals, not
  /// destinations, so they yield uniform destinations here. `rng` seeds the
  /// permutation draw only; the returned pattern itself is stateless per
  /// pick() and safe to share across threads.
  std::unique_ptr<DestPattern> make_dest(unsigned n, Rng& rng,
                                         SelfRule self = SelfRule::kAllowed) const;

  /// Slot-level arrival process at `load_or(fallback_load)` (the only place
  /// the bursty/pareto shapes take effect; other kinds are Bernoulli).
  SlotTraffic make_slot_traffic(unsigned n_inputs, double fallback_load,
                                DestPattern* dests, Rng rng) const;
};

}  // namespace pmsb::traffic
