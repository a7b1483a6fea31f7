// The arrival process of the fabric endpoints, shared by both transports:
// a cell fabric node's designated PortBridge (src/fabric/bridge.hpp) and a
// wormhole router's ingress input (src/fabric/worm.hpp) each own one.
//
// One Bernoulli trial per cycle at `per_cycle`; each success draws a
// destination from a DestPattern and becomes the next {dest, seq, created}
// arrival, held losslessly until the transport takes it. The next arrival is
// computed ahead of time, so the idle cycles between arrivals are skippable:
// when an arrival fires, the per-cycle trials up to the next success are
// replayed in one batch, then the destination is drawn -- the RNG stream is
// consumed exactly as a loop drawing one trial per stepped cycle would.
// All randomness is per endpoint (the Rng is split from the fabric seed by
// endpoint index), so the process is identical under any partition of the
// fabric into tasks and with idle skipping on or off.
//
// The pending arrivals are not stored. An arrival is a pure function of the
// endpoint's Rng (every DestPattern::pick reads only const configuration and
// its Rng), so two cursors walk the one stream: the generator (`rng`,
// `next_arrival`, `next_dest`) runs ahead at the newest arrival, and a head
// cursor (`head_rng_`, `head_`) trails at the oldest one not yet taken. pop()
// advances the head by replaying the generator's draw on `head_rng_`; when an
// arrival finds nothing pending, the head copies the generator's state
// instead. Memory per endpoint is constant however far the transport falls
// behind, and every simulated bit is what a queue of the draws would give.

#pragma once

#include <cstdint>

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

  /// Cycle of the next arrival: kNeverWake when per_cycle <= 0, and 0 until
  /// the first step() primes it (so a wake query never skips past it).
  Cycle next_arrival = 0;
  unsigned next_dest = 0;
  bool primed = false;

  /// Arrived, not yet taken by the transport.
  std::uint64_t pending() const { return generated - head_.seq; }
  bool empty() const { return generated == head_.seq; }
  /// The oldest pending arrival; valid while !empty().
  const Pending& front() const { return head_; }

  /// Hand the front arrival to the transport and replay the next one.
  void pop() {
    if (++head_.seq == generated) return;
    const Cycle prev = head_.created;
    draw(head_rng_, prev + 1, head_.created, head_.dest);
    PMSB_CHECK(head_.created > prev && head_.created <= last_arrival_,
               "arrival replay cursor left the generated stream");
  }

  /// Replay the per-cycle trials from `from` until one succeeds, then draw
  /// the destination, exactly as the stepped formulation would have.
  void prime(Cycle from) {
    primed = true;
    if (per_cycle <= 0) {
      next_arrival = kNeverWake;
      return;
    }
    draw(rng, from, next_arrival, next_dest);
  }

  /// Called once per stepped cycle; takes in the precomputed arrival when
  /// its cycle comes up.
  void step(Cycle t) {
    if (!primed) prime(t);
    if (t != next_arrival) return;
    if (empty()) {
      head_.dest = next_dest;
      head_.created = t;
      head_rng_ = rng;
    }
    ++generated;
    last_arrival_ = t;
    prime(t + 1);
  }

 private:
  void draw(Rng& r, Cycle from, Cycle& at, unsigned& dest) const {
    while (!r.next_bool(per_cycle)) ++from;
    at = from;
    dest = dests->pick(src, r);
  }

  Rng head_rng_{0};  ///< The stream just past the head arrival's draws.
  Pending head_{0, 0, 0};  ///< head_.seq counts the arrivals taken.
  Cycle last_arrival_ = 0;
};

}  // namespace pmsb::traffic
