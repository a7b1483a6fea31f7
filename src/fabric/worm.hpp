// Flit-level wormhole transport for the fabrics that route without a
// wrap-around: the multistage networks (banyan / omega / Clos) and the 2-D
// mesh. One WormRouter per topology node, connected by the same channel
// rings the cell fabrics use -- a Ring<WormFlit> per link in the forward
// direction and a Ring<CreditPulse> per link in the *reverse* direction.
//
// Transport model (the classic virtual-channel wormhole router [Dally90]):
//
//  * A message of `message_flits` flits streams head -> body -> tail. Only
//    the head carries routing state (the destination endpoint); every
//    router computes its output from it with no tables: on a multistage
//    network net::Topology::route_stage (a single destination-digit test),
//    on a mesh net::Topology::route_xy (dimension order, X then Y).
//  * Each input port buffers flits in `lanes` virtual-channel FIFOs of
//    `lane_depth` flits each. A lane holds flits of at most one message at a
//    time from head to tail (per-lane contiguity), so a blocked message
//    stalls only its own lane while other lanes overtake it -- the whole
//    point of virtual channels on a blocking network.
//  * Each output has `lanes` outgoing virtual channels. VC allocation binds
//    an (input, lane) holding a head flit to a free output lane, at most one
//    new binding per output per cycle; switch arbitration then picks at most
//    one flit per output per cycle among its bound lanes (both with
//    rotating round-robin priority, for fairness).
//  * Flow control is credit-based and lossless: an output lane starts with
//    `lane_depth` credits (the downstream FIFO's capacity), spends one per
//    flit sent, and regains one when the downstream router pops that flit
//    and pulses the credit back on the reverse ring. The credit round trip
//    is 2 * (delay + 1) cycles, so full-throughput streaming on one lane
//    needs lane_depth >= 2 * (delay + 1) -- worm fabrics default to
//    link_pipe_stages = 1 for that reason.
//  * Routing is deadlock-free without lanes, so lanes buy throughput under
//    head-of-line blocking, not deadlock freedom. A multistage network is
//    feed-forward (stage s only ever sends to stage s + 1), and XY routing
//    on a mesh never turns from Y back to X; either way the channel-
//    dependency graph is acyclic. (Dimension-order routing around a torus
//    or ring wrap is not: it would need dateline lanes, so those kinds run
//    the cell transport instead.)
//
// Router datapath. Every (input, lane) FIFO is a power-of-two ring (capacity
// the smallest power of two >= lane_depth) in one contiguous per-router slot
// array, indexed by a masked head and size. A head flit is routed once, when
// it reaches the front of its lane (a push into an empty lane, or a tail pop
// that leaves the lane non-empty), and the output is cached with the lane.
// Each output keeps a running count of unbound front heads routed to it and
// a mask of the output lanes it has granted, so VC allocation returns at once
// when no head wants the output (or every output lane is taken), and switch
// arbitration visits only granted lanes. An output with no granted lane still
// writes an invalid flit to its tx ring every cycle: the skip planners clear
// ring slots on the contract that every slot of a stepped cycle was written.
// Round-robin scans walk lane masks from the rotating start bit, so the
// grant order is the plain rotating round-robin order. Under PMSB_CHECK=1 the
// running counts are recounted from the lane state at the end of every eval.
//
// Ingress inputs (first-stage inputs; a mesh router's kLocal input) own a
// Source around a traffic::Arrivals (src/traffic/arrivals.hpp), the arrival
// process the cell fabrics' nodes own too: Bernoulli message arrivals at
// `messages_per_cycle`, destinations from the fabric's shared DestPattern
// (SelfRule::kAllowed: an endpoint may send to itself), a lossless backlog.
// Injection is per lane, as in [Dally90]: the source streams one active
// message per lane and interleaves their flits round-robin at the
// 1-flit/cycle link rate, so a stalled message blocks only its own lane --
// never the source.
// Egress outputs (last-stage outputs; a mesh router's kLocal output) own a
// Sink (per-lane reassembly, end-to-end payload verification, an
// order-sensitive delivery digest and an HDR latency histogram). Everything
// a router touches is either private or a single-writer ring, so a router
// is a fabric node in its own right (src/fabric/node.hpp), and the fabric
// engine partitions routers into tasks exactly like cell-fabric nodes.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/worm_invariants.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "fabric/channel.hpp"
#include "fabric/node.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/generators.hpp"

namespace pmsb::fabric {

/// One flit on a link. `lane` is the virtual channel the flit
/// occupies on *this* link (rewritten per hop); `dest` is the destination
/// endpoint; `msg`/`seq` identify the flit within its message; `created` is
/// the message's arrival cycle at the source (for end-to-end latency).
struct WormFlit {
  bool valid = false;
  bool head = false;
  bool tail = false;
  std::uint8_t lane = 0;
  std::uint16_t dest = 0;
  std::uint32_t seq = 0;
  std::uint64_t msg = 0;
  Cycle created = 0;
  Word data = 0;
};

/// Endpoints a wormhole fabric can address: WormFlit::dest is 16 bits, so
/// FabricConfig::check() rejects larger networks instead of wrapping.
inline constexpr unsigned kMaxWormEndpoints =
    std::numeric_limits<decltype(WormFlit::dest)>::max() + 1u;

/// Reverse-direction credit return: bit l set = one credit for lane l of the
/// paired forward link. One pulse aggregates every lane the downstream
/// router popped from this cycle (a lane pops at most one flit per cycle,
/// so one bit per lane suffices).
struct CreditPulse {
  bool valid = false;
  std::uint32_t mask = 0;
};

using WormChannel = Ring<WormFlit>;
using CreditChannel = Ring<CreditPulse>;

/// Deterministic payload word for flit `seq` of message `msg`; the sink
/// recomputes it for end-to-end verification.
inline Word worm_payload(std::uint64_t msg, std::uint32_t seq) {
  return mix64(msg + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(seq) + 1));
}

struct WormParams {
  unsigned lanes = 1;          ///< Virtual channels per port (1..32).
  unsigned lane_depth = 16;    ///< Flits of buffering per lane (= credits).
  unsigned message_flits = 8;  ///< Flits per message (head..tail).
  double messages_per_cycle = 0.0;  ///< Bernoulli arrival rate per endpoint.
};

/// One router of a wormhole fabric: a multistage switching element or a
/// 5-port mesh router (see file comment).
class WormRouter : public Component, public FabricNode {
 public:
  WormRouter(const net::Topology* topo, unsigned node, const WormParams& params,
             DestPattern* dests);

  // --- Wiring (fabric build time) ----------------------------------------
  /// Link input: flits arrive on `rx`, credits return on `credit_tx`.
  void connect_in(unsigned in_port, const WormChannel* rx, CreditChannel* credit_tx);
  /// Link output: flits leave on `tx`, credits arrive on `credit_rx`.
  void connect_out(unsigned out_port, WormChannel* tx, const CreditChannel* credit_rx);
  /// Ingress input only: endpoint `endpoint` injects into `in_port`.
  void add_source(unsigned in_port, unsigned endpoint, Rng rng);
  /// Egress output only (a last-stage output, or a mesh router's kLocal):
  /// output `out_port` delivers to endpoint `endpoint`.
  void add_sink(unsigned out_port, unsigned endpoint);

  void eval(Cycle t) override;
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  /// Quiescent when nothing is buffered, streaming, or bound. In-flight
  /// flits/credits live in the rings, which the fabric's skip planners check
  /// separately (Channel idle_at), exactly as for the cell fabrics.
  bool is_quiescent(Cycle t) const override;
  Cycle next_wake(Cycle t) const override;
  std::string name() const override;

  // --- Fabric node ------------------------------------------------------
  void attach(Engine& eng) override { eng.add(this); }
  NodeCounts counts() const override;
  /// Sinks merge in port order. Adds no by_hops rows.
  void fold(FabricStats& st) const override;

  // --- Accounting (read at round boundaries / after the run) -------------
  struct SourceStats {
    std::uint64_t generated = 0;  ///< Messages created (arrival process).
    std::size_t backlog = 0;      ///< Messages queued, not yet streaming.
  };
  struct SinkStats {
    std::uint64_t delivered = 0;       ///< Complete messages (tail seen).
    std::uint64_t flits = 0;           ///< Flits delivered.
    std::uint64_t payload_errors = 0;  ///< End-to-end payload mismatches.
    std::uint64_t digest = 0;          ///< Order-sensitive delivery digest.
    std::uint64_t lat_sum = 0;
    const HdrHistogram* lat_hist = nullptr;
  };

  bool has_source(unsigned in_port) const { return sources_[in_port] != nullptr; }
  SourceStats source_stats(unsigned in_port) const;
  SinkStats sink_stats(unsigned out_port) const;

  /// Flits relayed onto links (the telemetry work measure).
  std::uint64_t flits_forwarded() const { return flits_forwarded_; }
  /// Flits currently buffered across all lane FIFOs.
  std::uint64_t flits_held() const { return flits_held_; }

 private:
  friend struct WormRouterPeer;  ///< Test access (corrupts counters in death tests).

  static constexpr unsigned kNoOut = ~0u;

  /// An ingress input: its arrival process (message ids are
  /// endpoint << 32 | arrival seq) and the per-lane streaming state.
  struct Source {
    unsigned in_port = 0;
    traffic::Arrivals arrivals;  ///< src = the endpoint.
    // Streaming state: one active message per lane ([Dally90] per-lane
    // injection), flits interleaved round-robin at <= 1 flit per cycle
    // total (the injection link rate). A single shared worm here would
    // let one stalled hot-destined message head-of-line-block the whole
    // source, and extra lanes could never raise hotspot throughput.
    struct Worm {
      std::uint32_t seq = 0;
      unsigned dest = 0;
      std::uint64_t msg = 0;
      Cycle created = 0;
    };
    std::vector<Worm> worms;   ///< [lane]
    std::uint32_t active = 0;  ///< Lanes with a message streaming (bit per lane).
    unsigned start_rr = 0;     ///< Rotating lane-pick start for new messages.
    unsigned emit_rr = 0;      ///< Rotating emission start lane.
  };

  struct Sink {
    unsigned out_port = 0;
    unsigned endpoint = 0;
    struct LaneRx {
      bool mid = false;
      std::uint64_t msg = 0;
      std::uint32_t next_seq = 0;
      Cycle created = 0;
    };
    std::vector<LaneRx> lanes;
    std::uint64_t delivered = 0;
    std::uint64_t flits = 0;
    std::uint64_t payload_errors = 0;
    std::uint64_t digest = 0;
    std::uint64_t lat_sum = 0;
    HdrHistogram lat_hist;
  };

  /// One input virtual channel: its ring indices, the cached route of an
  /// unbound head at its front, and its binding to an output lane.
  struct Lane {
    std::uint32_t head = 0;  ///< Ring index of the front flit.
    std::uint32_t size = 0;  ///< Flits buffered.
    unsigned want = kNoOut;  ///< Output of the unbound head at the front, else kNoOut.
    bool bound = false;      ///< Streaming through (out, out_lane).
    unsigned out = 0;
    unsigned out_lane = 0;
  };

  /// One outgoing virtual channel of an output port.
  struct OutLane {
    unsigned in = 0;
    unsigned in_lane = 0;
    unsigned credits = 0;
  };

  /// Per-output running counts and round-robin scan starts.
  struct Out {
    std::uint32_t owned = 0;  ///< Output lanes granted (bit per lane).
    unsigned wanting = 0;     ///< Unbound front heads routed here.
    unsigned rr_alloc = 0;    ///< VC-allocation scan start, over li().
    unsigned rr_lane = 0;     ///< Free-lane grant start.
    unsigned rr_sw = 0;       ///< Switch-arbiter scan start.
  };

  std::size_t li(unsigned port, unsigned lane) const {
    return static_cast<std::size_t>(port) * params_.lanes + lane;
  }
  WormFlit& slot(std::size_t idx, std::uint32_t k) {
    return slots_[(idx << ring_shift_) + ((lanes_[idx].head + k) & ring_mask_)];
  }
  const WormFlit& front(std::size_t idx) const {
    return slots_[(idx << ring_shift_) + lanes_[idx].head];
  }
  /// Output toward endpoint `dest` for a head that arrived on input `in`.
  unsigned route(unsigned in, unsigned dest) const;
  /// Route the head now at the front of lane `idx` of input `in` (the lane
  /// must be non-empty and unbound).
  void route_front(unsigned in, std::size_t idx);
  void push_flit(unsigned in_port, const WormFlit& f);
  void source_step(Source& s, Cycle t);
  void alloc_lane(unsigned out);
  void arbitrate(unsigned out, Cycle t);
  void deliver(Sink& sink, const WormFlit& f, Cycle t);
  /// PMSB_CHECK=1 only: recount the running counts from the lane state.
  void audit_counts() const;

  const net::Topology* topo_;
  unsigned node_;
  WormParams params_;
  DestPattern* dests_;
  unsigned ports_;
  bool mesh_;                ///< XY-routed mesh router (else multistage element).
  std::uint32_t lane_bits_;  ///< One bit per lane.
  unsigned ring_shift_;      ///< log2 of the per-lane ring capacity.
  std::uint32_t ring_mask_;  ///< Ring capacity - 1.

  std::vector<const WormChannel*> rx_;      ///< [in_port], null without a link.
  std::vector<CreditChannel*> credit_tx_;   ///< [in_port], null without a link.
  std::vector<WormChannel*> tx_;            ///< [out_port], null without a link.
  std::vector<const CreditChannel*> credit_rx_;  ///< [out_port], null without a link.

  std::vector<WormFlit> slots_;     ///< [li(in, lane) << ring_shift_ | ring index]
  std::vector<Lane> lanes_;         ///< [li(in, lane)]
  std::vector<OutLane> out_lane_;   ///< [li(out, lane)]
  std::vector<Out> out_;            ///< [out_port]

  /// Lanes popped during the current eval, per input: blocks a second pop
  /// from the same lane (one flit per lane per cycle) and is the credit mask
  /// returned upstream -- one bit per popped lane, so a tail popped at one
  /// output and the next message's head popped at another output in the
  /// same cycle can never merge into a single credit bit.
  std::vector<std::uint32_t> popped_;  ///< [in_port], eval scratch.

  std::vector<std::unique_ptr<Source>> sources_;  ///< [in_port]
  std::vector<std::unique_ptr<Sink>> sinks_;      ///< [out_port]

  std::uint64_t flits_in_total_ = 0;   ///< Accepted off links + injected.
  std::uint64_t flits_out_total_ = 0;  ///< Forwarded + delivered.
  std::uint64_t flits_forwarded_ = 0;  ///< Forwarded onto links.
  std::uint64_t flits_held_ = 0;       ///< Buffered across all lanes.

  std::unique_ptr<check::WormAuditor> auditor_;  ///< Non-null under PMSB_CHECK=1.
};

}  // namespace pmsb::fabric
