// DEPRECATED -- compatibility shim.
//
// WormholeNetwork is superseded by the unified construction path
// fabric::Fabric::build(net::Topology, fabric::FabricConfig) with a
// multistage topology kind (kBanyan / kOmega / kClos), which runs the same
// flit-level virtual-channel wormhole transport (src/fabric/worm.*) under
// both the barrier and dataflow engines, deterministically at any thread
// count. New code must build through fabric::Fabric::build. This header
// stays until fabric wormhole transport runs on direct topologies (mesh /
// torus / ring with dimension-order routing) and bench_e2_bursty_wormhole,
// its last production user, moves over to fabric::Fabric::build.
//
// WormholeNetwork: a full network of single-lane wormhole routers with
// credit flow control, used to reproduce the paper's bursty-traffic citation
// (section 2.1, [Dally90 fig. 8, 1 lane]: 20-flit messages, 16-flit buffers,
// saturation near 25% of link capacity) and as the multi-switch substrate of
// the cluster example.
//
// The network advances in two phases per cycle (decide, then apply), so all
// routing/arbitration decisions see only the previous cycle's state --
// cycle-accurate at flit granularity. Link traversal costs one cycle.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "stats/stats.hpp"

namespace pmsb::net {

struct WormholeConfig {
  Topology topo{TopologyKind::kMesh2D, 8, 8};
  unsigned buffer_flits = 16;    ///< TOTAL input buffering per router port.
  unsigned message_flits = 20;   ///< Message length.
  unsigned lanes = 1;            ///< Virtual channels per link ([Dally90]);
                                 ///< buffer_flits is split across lanes.
  double injection_rate = 0.1;   ///< Offered load, flits/node/cycle.
  std::uint64_t seed = 1;
};

class [[deprecated(
    "use fabric::Fabric::build with a multistage net::Topology "
    "(kBanyan/kOmega/kClos); this shim stays only until fabric wormhole "
    "transport runs on direct topologies and E2 moves over")]] WormholeNetwork {
 public:
  explicit WormholeNetwork(const WormholeConfig& cfg);

  /// Advance one cycle.
  void step();

  /// Run for `cycles` cycles.
  void run(Cycle cycles, Cycle warmup = 0);

  // --- results ---
  std::uint64_t messages_injected() const { return injected_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t flits_delivered() const { return flits_delivered_; }

  /// Accepted throughput in flits/node/cycle over the measured window.
  double accepted_throughput() const;

  /// Message latency (injection of head to ejection of tail), post-warmup.
  const LatencyStats& latency() const { return latency_; }

  /// Total flits waiting in source queues (grows without bound past
  /// saturation -- the saturation detector of bench E2).
  std::uint64_t source_backlog_flits() const;

  Cycle now() const { return now_; }

 private:
  struct Source {
    std::deque<NetFlit> backlog;  ///< Flits waiting to enter the local port.
  };
  struct SinkState {
    // Tail arrival closes the measurement; heads carry `created`.
    Cycle head_created = 0;
  };
  /// One-cycle link pipeline entry.
  struct InFlight {
    bool valid = false;
    NetFlit flit;
    unsigned dst_node = 0;
    Port dst_port = kLocal;
  };

  void inject(Cycle t);

  WormholeConfig cfg_;
  Rng rng_;
  std::vector<WormholeRouter> routers_;
  std::vector<Source> sources_;
  std::vector<SinkState> sinks_;

  /// Credits held by (node, output port, lane) toward the downstream lane.
  std::vector<std::vector<CreditCounter>> credits_;  ///< [node][out*lanes+lane]
  unsigned lane_depth_ = 0;
  /// Flits on the wires (delivered at the start of next cycle).
  std::vector<InFlight> wires_;
  /// Credits on their way back: (node, port*lanes+lane) granted next cycle.
  std::vector<std::pair<unsigned, unsigned>> credit_returns_;

  Cycle now_ = 0;
  Cycle measure_from_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t flits_delivered_ = 0;
  std::uint64_t flits_delivered_measured_ = 0;
  std::uint64_t next_msg_id_ = 0;
  LatencyStats latency_;

};

}  // namespace pmsb::net
