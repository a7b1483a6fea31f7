// Tests of the multi-switch wormhole substrate: topology arithmetic, router
// invariants, delivery, flow control, deadlock freedom, and the qualitative
// saturation behaviour the paper cites from [Dally90].
//
// WormholeNetwork is a deprecated shim (superseded by fabric::Fabric::build);
// this file keeps it covered until fabric wormhole transport runs on direct
// topologies and bench_e2_bursty_wormhole moves over.
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/node.hpp"
#include "net/topology.hpp"
#include "net/wormhole.hpp"

namespace pmsb::net {
namespace {

TEST(Topology, MeshNeighbors) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  EXPECT_EQ(t.neighbor(5, kEast), 6);
  EXPECT_EQ(t.neighbor(5, kWest), 4);
  EXPECT_EQ(t.neighbor(5, kNorth), 1);
  EXPECT_EQ(t.neighbor(5, kSouth), 9);
  EXPECT_EQ(t.neighbor(3, kEast), -1);   // Edge.
  EXPECT_EQ(t.neighbor(0, kNorth), -1);  // Edge.
}

TEST(Topology, TorusWraps) {
  Topology t{TopologyKind::kTorus2D, 4, 4};
  EXPECT_EQ(t.neighbor(3, kEast), 0);
  EXPECT_EQ(t.neighbor(0, kWest), 3);
  EXPECT_EQ(t.neighbor(0, kNorth), 12);
  EXPECT_EQ(t.neighbor(12, kSouth), 0);
}

TEST(Topology, XyRoutingGoesXFirst) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  EXPECT_EQ(t.route_xy(0, 6), kEast);   // (0,0) -> (2,1): X first.
  EXPECT_EQ(t.route_xy(2, 6), kSouth);  // Same column: then Y.
  EXPECT_EQ(t.route_xy(6, 6), kLocal);
  EXPECT_EQ(t.route_xy(7, 4), kWest);
}

TEST(Topology, TorusRoutesShortestWay) {
  Topology t{TopologyKind::kTorus2D, 8, 1};
  EXPECT_EQ(t.route_xy(0, 1), kEast);
  EXPECT_EQ(t.route_xy(0, 7), kWest);  // One hop west beats 7 east.
}

TEST(Topology, TorusTieBreaksGoEastAndSouth) {
  // Even-sized torus: the two ways around are equidistant; the route must
  // deterministically take the positive direction (east, then south).
  Topology t{TopologyKind::kTorus2D, 8, 8};
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(4, 0)), kEast);   // 4 == 8 - 4.
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(0, 4)), kSouth);  // Y tie too.
  EXPECT_EQ(t.route_xy(t.node_at(6, 3), t.node_at(2, 3)), kEast);   // Tie from x=6.
  // One short of the tie still goes the short way.
  EXPECT_EQ(t.route_xy(t.node_at(0, 0), t.node_at(5, 0)), kWest);
}

TEST(Topology, MeshEdgeNeighborsAreAbsent) {
  Topology t{TopologyKind::kMesh2D, 4, 4};
  for (unsigned x = 0; x < 4; ++x) {
    EXPECT_EQ(t.neighbor(t.node_at(x, 0), kNorth), -1) << x;
    EXPECT_EQ(t.neighbor(t.node_at(x, 3), kSouth), -1) << x;
  }
  for (unsigned y = 0; y < 4; ++y) {
    EXPECT_EQ(t.neighbor(t.node_at(0, y), kWest), -1) << y;
    EXPECT_EQ(t.neighbor(t.node_at(3, y), kEast), -1) << y;
  }
  // Interior nodes have all four.
  for (Port p : {kEast, kWest, kNorth, kSouth})
    EXPECT_GE(t.neighbor(t.node_at(1, 1), p), 0);
}

TEST(Topology, OppositePortsPair) {
  EXPECT_EQ(opposite(kEast), kWest);
  EXPECT_EQ(opposite(kWest), kEast);
  EXPECT_EQ(opposite(kNorth), kSouth);
  EXPECT_EQ(opposite(kSouth), kNorth);
  // Links are symmetric: neighbor through p sees us through opposite(p).
  Topology t{TopologyKind::kTorus2D, 4, 4};
  for (unsigned n = 0; n < t.nodes(); ++n) {
    for (Port p : {kEast, kWest, kNorth, kSouth}) {
      const int m = t.neighbor(n, p);
      ASSERT_GE(m, 0);
      EXPECT_EQ(t.neighbor(static_cast<unsigned>(m), opposite(p)), static_cast<int>(n));
    }
  }
}

TEST(Topology, HopsMatchesRouteXyPathLength) {
  for (Topology t : {Topology{TopologyKind::kMesh2D, 4, 3},
                     Topology{TopologyKind::kTorus2D, 4, 4},
                     Topology{TopologyKind::kRing, 6, 1}}) {
    for (unsigned a = 0; a < t.nodes(); ++a) {
      for (unsigned b = 0; b < t.nodes(); ++b) {
        // Walk the route_xy path and count links.
        unsigned cur = a, steps = 0;
        while (cur != b) {
          const Port p = t.route_xy(cur, b);
          ASSERT_NE(p, kLocal);
          const int next = t.neighbor(cur, p);
          ASSERT_GE(next, 0);
          cur = static_cast<unsigned>(next);
          ASSERT_LE(++steps, t.nodes());  // No routing loops.
        }
        EXPECT_EQ(t.hops(a, b), steps) << a << "->" << b;
      }
    }
    EXPECT_EQ(t.hops(0, 0), 0u);
  }
}

TEST(Topology, DiameterIsMaxPairwiseHops) {
  for (Topology t : {Topology{TopologyKind::kMesh2D, 4, 3},
                     Topology{TopologyKind::kTorus2D, 4, 4},
                     Topology{TopologyKind::kTorus2D, 8, 8},
                     Topology{TopologyKind::kRing, 6, 1},
                     Topology{TopologyKind::kRing, 7, 1}}) {
    unsigned worst = 0;
    for (unsigned a = 0; a < t.nodes(); ++a)
      for (unsigned b = 0; b < t.nodes(); ++b) worst = std::max(worst, t.hops(a, b));
    EXPECT_EQ(t.diameter(), worst) << t.describe();
  }
  // Closed forms: full span on a mesh, half the wrap on torus/ring.
  EXPECT_EQ((Topology{TopologyKind::kMesh2D, 5, 4}.diameter()), 4u + 3u);
  EXPECT_EQ((Topology{TopologyKind::kTorus2D, 8, 8}.diameter()), 4u + 4u);
  EXPECT_EQ((Topology{TopologyKind::kRing, 8, 1}.diameter()), 4u);
}

TEST(Topology, DescribeAndRequiredPorts) {
  EXPECT_EQ((Topology{TopologyKind::kTorus2D, 8, 8}.describe()), "torus2d 8x8");
  EXPECT_EQ((Topology{TopologyKind::kRing, 6, 1}.describe()), "ring 6x1");
  EXPECT_EQ((Topology{TopologyKind::kMesh2D, 4, 3}.required_ports()), 4u);
  EXPECT_EQ((Topology{TopologyKind::kRing, 6, 1}.required_ports()), 2u);
}

TEST(Router, OwnershipHoldsUntilTail) {
  Topology t{TopologyKind::kMesh2D, 2, 1};
  WormholeRouter r(0, t, 4);
  // Two-flit message from local port to the east.
  NetFlit head;
  head.valid = true;
  head.head = true;
  head.dest = 1;
  NetFlit tail = head;
  tail.head = false;
  tail.tail = true;
  r.accept(kLocal, head);
  auto all_ok = [](unsigned, unsigned) { return true; };
  std::vector<WormholeRouter::Move> moves;
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  EXPECT_EQ(moves[kEast].in_port, static_cast<unsigned>(kLocal));
  (void)r.pop_for(kEast, moves[kEast]);
  r.accept(kLocal, tail);
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  const NetFlit f = r.pop_for(kEast, moves[kEast]);
  EXPECT_TRUE(f.tail);
  EXPECT_TRUE(r.idle());
}

TEST(Router, BlockedByCredits) {
  Topology t{TopologyKind::kMesh2D, 2, 1};
  WormholeRouter r(0, t, 4);
  NetFlit head;
  head.valid = true;
  head.head = true;
  head.dest = 1;
  r.accept(kLocal, head);
  std::vector<WormholeRouter::Move> moves;
  r.decide([](unsigned out, unsigned) { return out != kEast; }, moves);
  EXPECT_FALSE(moves[kEast].valid);
}

TEST(Router, LanesSerializeIndependentMessages) {
  // Two messages from different inputs to the same output: with 2 lanes,
  // both acquire a lane and their flits interleave on the physical link.
  Topology t{TopologyKind::kMesh2D, 2, 1};
  WormholeRouter r(0, t, 8, /*lanes=*/2);
  auto mk = [](bool head, bool tail, std::uint64_t id, std::uint32_t lane) {
    NetFlit f;
    f.valid = true;
    f.head = head;
    f.tail = tail;
    f.dest = 1;
    f.msg_id = id;
    f.lane = lane;
    return f;
  };
  r.accept(kLocal, mk(true, false, 1, 0));
  r.accept(kNorth, mk(true, false, 2, 0));
  auto all_ok = [](unsigned, unsigned) { return true; };
  std::vector<WormholeRouter::Move> moves;
  // Cycle 1: one head allocates a lane.
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  const NetFlit f1 = r.pop_for(kEast, moves[kEast]);
  // Cycle 2: the second head gets the other lane.
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  const NetFlit f2 = r.pop_for(kEast, moves[kEast]);
  EXPECT_NE(f1.msg_id, f2.msg_id);
  EXPECT_NE(f1.lane, f2.lane);  // Distinct downstream lanes.
  // Tails release the lanes.
  r.accept(kLocal, mk(false, true, 1, 0));
  r.accept(kNorth, mk(false, true, 2, 0));
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  (void)r.pop_for(kEast, moves[kEast]);
  r.decide(all_ok, moves);
  ASSERT_TRUE(moves[kEast].valid);
  (void)r.pop_for(kEast, moves[kEast]);
  EXPECT_TRUE(r.idle());
}

TEST(Wormhole, LanesRaiseSaturationAtConstantStorage) {
  // [Dally90]'s actual point, and the contrast to the paper's "1 lane"
  // citation: splitting the same 16 flits of buffering into 2 or 4 lanes
  // raises the saturation throughput substantially.
  auto accepted_at = [](unsigned lanes) {
    WormholeConfig cfg;
    cfg.topo = Topology{TopologyKind::kMesh2D, 8, 8};
    cfg.injection_rate = 0.9;
    cfg.message_flits = 20;
    cfg.buffer_flits = 16;
    cfg.lanes = lanes;
    cfg.seed = 11;
    WormholeNetwork net(cfg);
    net.run(25000, 5000);
    return net.accepted_throughput();
  };
  const double one = accepted_at(1);
  const double two = accepted_at(2);
  const double four = accepted_at(4);
  EXPECT_GT(two, one * 1.15);
  EXPECT_GT(four, one * 1.25);
}

TEST(Wormhole, DeliversEverythingAtLightLoad) {
  WormholeConfig cfg;
  cfg.topo = Topology{TopologyKind::kMesh2D, 4, 4};
  cfg.injection_rate = 0.05;
  cfg.message_flits = 20;
  cfg.buffer_flits = 16;
  cfg.seed = 3;
  WormholeNetwork net(cfg);
  net.run(20000, 1000);
  EXPECT_GT(net.messages_delivered(), 0u);
  // Light load: deliveries keep pace with injections (no growing backlog).
  EXPECT_LT(net.source_backlog_flits(), 200u);
  EXPECT_NEAR(net.accepted_throughput(), 0.05, 0.01);
}

TEST(Wormhole, LatencyGrowsWithLoad) {
  auto mean_latency_at = [](double rate) {
    WormholeConfig cfg;
    cfg.topo = Topology{TopologyKind::kMesh2D, 4, 4};
    cfg.injection_rate = rate;
    cfg.seed = 4;
    WormholeNetwork net(cfg);
    net.run(30000, 3000);
    return net.latency().mean();
  };
  const double lo = mean_latency_at(0.02);
  const double hi = mean_latency_at(0.15);
  EXPECT_GT(lo, 20.0);  // At least serialization: 20 flits.
  EXPECT_GT(hi, lo);
}

TEST(Wormhole, SaturatesWellBelowCapacity) {
  // The [Dally90, 1 lane] phenomenon (section 2.1): with 20-flit messages
  // and 16-flit buffers, accepted throughput plateaus far below link rate.
  WormholeConfig cfg;
  cfg.topo = Topology{TopologyKind::kMesh2D, 8, 8};
  cfg.injection_rate = 0.9;  // Offered far beyond saturation.
  cfg.message_flits = 20;
  cfg.buffer_flits = 16;
  cfg.seed = 5;
  WormholeNetwork net(cfg);
  net.run(30000, 5000);
  const double accepted = net.accepted_throughput();
  EXPECT_LT(accepted, 0.45);
  EXPECT_GT(accepted, 0.05);
  EXPECT_GT(net.source_backlog_flits(), 1000u);  // Clearly saturated.
}

TEST(Wormhole, NoDeadlockUnderSustainedOverload) {
  // XY dimension-order routing on a mesh is deadlock-free even single-lane:
  // deliveries must keep happening arbitrarily late into an overloaded run.
  WormholeConfig cfg;
  cfg.topo = Topology{TopologyKind::kMesh2D, 4, 4};
  cfg.injection_rate = 1.0;
  cfg.seed = 6;
  WormholeNetwork net(cfg);
  net.run(10000);
  const std::uint64_t early = net.messages_delivered();
  net.run(10000);
  EXPECT_GT(net.messages_delivered(), early + 50);
}

TEST(Wormhole, MessagesArriveIntact) {
  // Latency of every delivered message is at least hops + flits - 1; the
  // tail-accounting would fail (and credit checks abort) on flit loss.
  WormholeConfig cfg;
  cfg.topo = Topology{TopologyKind::kMesh2D, 4, 4};
  cfg.injection_rate = 0.08;
  cfg.message_flits = 10;
  cfg.seed = 7;
  WormholeNetwork net(cfg);
  net.run(20000, 100);
  ASSERT_GT(net.latency().samples(), 100u);
  EXPECT_GE(net.latency().min(), cfg.message_flits - 1);
  EXPECT_EQ(net.flits_delivered() % 1, 0u);
}

TEST(CreditCounter, ConsumeRestore) {
  CreditCounter c(2);
  c.consume();
  c.consume();
  EXPECT_FALSE(c.available());
  c.restore(2);
  EXPECT_TRUE(c.available());
}

TEST(CreditCounterDeath, Overdraw) {
  CreditCounter c(1);
  c.consume();
  EXPECT_DEATH(c.consume(), "credit");
}

TEST(CreditCounterDeath, OverRestore) {
  CreditCounter c(2);
  EXPECT_DEATH(c.restore(2), "overflow");
}

}  // namespace
}  // namespace pmsb::net
