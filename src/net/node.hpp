// A wormhole router with 1..L virtual-channel lanes per physical link
// ([Dally90]). The paper cites the "1 lane" curve of Dally's figure 8 --
// input-queued wormhole switching whose messages are longer than its buffers
// saturates near 25% of capacity; Dally's own remedy is lanes. The model
// supports both, at CONSTANT total buffer storage per input port (depth is
// split across lanes), so bench E2 can show the 1-lane collapse and the
// multi-lane recovery on equal silicon.
//
// Five ports (E, W, N, S, Local). Each input port has `lanes` flit FIFOs.
// A message acquires one downstream lane at its head (virtual-channel
// allocation), holds it to its tail, and its flits carry the lane id. Lanes
// of one physical output share the link one flit per cycle, round-robin.
// Routing is XY; with lanes >= 1 on a mesh this stays deadlock-free.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/arbiter.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"

namespace pmsb::net {

class WormholeRouter {
 public:
  /// `buffer_flits` is the TOTAL buffering per input port, divided evenly
  /// over `lanes` (must divide it).
  WormholeRouter(unsigned node_id, const Topology& topo, unsigned buffer_flits,
                 unsigned lanes = 1);

  unsigned id() const { return id_; }
  unsigned lanes() const { return lanes_; }
  unsigned lane_depth() const { return depth_; }

  bool can_accept(Port port, unsigned lane) const {
    return fifo(port, lane).size() < depth_;
  }
  std::size_t occupancy(Port port, unsigned lane) const { return fifo(port, lane).size(); }

  /// Deliver a flit into input (port, flit.lane) -- apply phase.
  void accept(Port port, const NetFlit& f);

  /// One decided move: forward the front flit of input (in_port, in_lane)
  /// through `out`, retagged to downstream lane `out_lane`.
  struct Move {
    bool valid = false;
    unsigned in_port = 0;
    unsigned in_lane = 0;
    unsigned out_lane = 0;
  };

  /// Decision phase: for every output port choose at most one move.
  /// credit_ok(out, lane) = downstream lane has buffer space.
  void decide(const std::function<bool(unsigned out, unsigned lane)>& credit_ok,
              std::vector<Move>& moves);

  /// Apply a decided move: pop the flit, retag its lane, release the lane
  /// ownership on tail. Returns the (retagged) flit.
  NetFlit pop_for(Port out, const Move& m);

  bool idle() const;

 private:
  struct LaneOwner {
    int in_port = -1;  ///< -1 = free.
    unsigned in_lane = 0;
  };

  std::deque<NetFlit>& fifo(unsigned port, unsigned lane) {
    return fifo_[port * lanes_ + lane];
  }
  const std::deque<NetFlit>& fifo(unsigned port, unsigned lane) const {
    return fifo_[port * lanes_ + lane];
  }
  LaneOwner& owner(unsigned out, unsigned lane) { return owner_[out * lanes_ + lane]; }

  unsigned id_;
  const Topology* topo_;
  unsigned lanes_;
  unsigned depth_;  ///< Per lane.
  std::vector<std::deque<NetFlit>> fifo_;   ///< [port * lanes + lane]
  std::vector<LaneOwner> owner_;            ///< [out * lanes + lane]
  std::vector<pmsb::RoundRobin> lane_rr_;   ///< Per output: among owned lanes.
  std::vector<pmsb::RoundRobin> head_rr_;   ///< Per output: among waiting heads.
};

}  // namespace pmsb::net
