// The arrival process of the fabric endpoints, shared by both transports:
// a cell fabric node's designated PortBridge (src/fabric/bridge.hpp) and a
// wormhole router's ingress input (src/fabric/worm.hpp) each own one.
//
// One Bernoulli trial per cycle at `per_cycle`; each success draws a
// destination from a DestPattern and queues {dest, seq, created} in a
// lossless backlog until the transport can take it. The next arrival is
// computed ahead of time, so the idle cycles between arrivals are skippable:
// when an arrival fires, the per-cycle trials up to the next success are
// replayed in one batch, then the destination is drawn -- the RNG stream is
// consumed exactly as a loop drawing one trial per stepped cycle would.
// All randomness is per endpoint (the Rng is split from the fabric seed by
// endpoint index), so the process is identical under any partition of the
// fabric into tasks and with idle skipping on or off.

#pragma once

#include <cstdint>
#include <deque>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "traffic/generators.hpp"

namespace pmsb::traffic {

struct Arrivals {
  struct Pending {
    unsigned dest;
    std::uint64_t seq;  ///< Per-endpoint arrival index, from 0.
    Cycle created;
  };

  double per_cycle = 0;  ///< Bernoulli probability of an arrival per cycle.
  unsigned src = 0;      ///< This endpoint, as DestPattern::pick sees it.
  DestPattern* dests = nullptr;
  Rng rng{0};
  std::uint64_t generated = 0;  ///< Arrivals so far; the next one's seq.
  std::deque<Pending> backlog;  ///< Arrived, not yet taken by the transport.

  /// Cycle of the next arrival: kNeverWake when per_cycle <= 0, and 0 until
  /// the first step() primes it (so a wake query never skips past it).
  Cycle next_arrival = 0;
  unsigned next_dest = 0;
  bool primed = false;

  /// Replay the per-cycle trials from `from` until one succeeds, then draw
  /// the destination, exactly as the stepped formulation would have.
  void prime(Cycle from) {
    primed = true;
    if (per_cycle <= 0) {
      next_arrival = kNeverWake;
      return;
    }
    Cycle a = from;
    while (!rng.next_bool(per_cycle)) ++a;
    next_arrival = a;
    next_dest = dests->pick(src, rng);
  }

  /// Called once per stepped cycle; queues the precomputed arrival when its
  /// cycle comes up.
  void step(Cycle t) {
    if (!primed) prime(t);
    if (t != next_arrival) return;
    backlog.push_back(Pending{next_dest, generated++, t});
    prime(t + 1);
  }
};

}  // namespace pmsb::traffic
