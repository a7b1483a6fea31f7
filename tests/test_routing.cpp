// Tests of the figure-6 RT block: the routing table itself, and the tables
// the cell fabrics program from their topology and rewrite every head word
// with.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/routing_table.hpp"
#include "fabric/bridge.hpp"

namespace pmsb {
namespace {

TEST(RoutingTable, ProgramLookup) {
  RoutingTable rt(6);
  EXPECT_EQ(rt.size(), 64u);
  EXPECT_FALSE(rt.lookup(5).valid);
  rt.program(5, 3, 17);
  EXPECT_TRUE(rt.lookup(5).valid);
  EXPECT_EQ(rt.lookup(5).out_port, 3);
  EXPECT_EQ(rt.lookup(5).next_vc, 17u);
  EXPECT_FALSE(rt.lookup(6).valid);
}

TEST(RoutingTableDeath, OutOfRange) {
  RoutingTable rt(4);
  EXPECT_DEATH(rt.lookup(16), "beyond");
  EXPECT_DEATH(rt.program(3, 0, 16), "beyond");
}

// A node's table is dimension-order routing written down: the VC is the
// destination node, and every other node's entry holds route_xy's out-port
// with the VC unchanged. The node's own entry, and every VC past the last
// node, stay invalid. Every table but node 0's is relabelled from node 0's,
// so the cases cover even and odd widths and heights, and odd rings.
TEST(RoutingTable, XyRoutesMatchDimensionOrder) {
  for (const net::Topology& topo :
       {net::Topology{net::TopologyKind::kTorus2D, 8, 8},
        net::Topology{net::TopologyKind::kTorus2D, 3, 5},
        net::Topology{net::TopologyKind::kTorus2D, 5, 4},
        net::Topology{net::TopologyKind::kRing, 6, 1},
        net::Topology{net::TopologyKind::kRing, 7, 1}}) {
    for (unsigned v = 0; v < topo.nodes(); ++v) {
      const RoutingTable rt = fabric::xy_routes(topo, v);
      ASSERT_EQ(rt.size(), std::size_t{1} << bits_for(topo.nodes()));
      for (std::uint32_t d = 0; d < rt.size(); ++d) {
        const RoutingTable::Entry& e = rt.lookup(d);
        if (d == v || d >= topo.nodes()) {
          EXPECT_FALSE(e.valid) << v << " -> " << d;
          continue;
        }
        ASSERT_TRUE(e.valid) << v << " -> " << d;
        EXPECT_EQ(e.out_port, topo.route_xy(v, d)) << v << " -> " << d;
        EXPECT_EQ(e.next_vc, d);
      }
    }
  }
}

// Following the table from hop to hop delivers every cell along the XY path:
// after Topology::hops(a, b) lookups, each one a link to the neighbour the
// entry names, the cell is at its destination.
TEST(RoutingTable, XyRoutesReachEveryDestinationInMinimalHops) {
  const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
  std::vector<RoutingTable> tables;
  for (unsigned v = 0; v < topo.nodes(); ++v) tables.push_back(fabric::xy_routes(topo, v));
  for (unsigned a = 0; a < topo.nodes(); ++a) {
    for (unsigned b = 0; b < topo.nodes(); ++b) {
      unsigned at = a, vc = b, hops = 0;
      while (at != b && hops <= topo.nodes()) {
        const RoutingTable::Entry& e = tables[at].lookup(vc);
        ASSERT_TRUE(e.valid);
        at = static_cast<unsigned>(topo.neighbor(at, static_cast<net::Port>(e.out_port)));
        vc = e.next_vc;
        ++hops;
      }
      EXPECT_EQ(at, b) << a << " -> " << b;
      EXPECT_EQ(hops, topo.hops(a, b)) << a << " -> " << b;
    }
  }
}

// A cell-fabric node has no local port: a bridge handed a cell for its own
// node finds that node's entry invalid and aborts before sending it.
TEST(RoutingTableDeath, BridgeAbortsOnCellForItsOwnNode) {
  const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
  const fabric::CellCodec codec{SwitchConfig::for_ports(4).cell_format(), bits_for(16)};
  fabric::Channel rx{8};
  WireLink link;
  std::vector<unsigned> identity(16);
  std::iota(identity.begin(), identity.end(), 0u);
  PermutationDest to_self(identity);
  traffic::Arrivals arrivals;
  arrivals.per_cycle = 1.0;
  arrivals.dests = &to_self;
  fabric::Ejector ejector;
  fabric::PortBridge bridge(&topo, &codec, 0, net::kWest, &rx, &link, &arrivals, &ejector);
  EXPECT_DEATH(bridge.eval(0), "addressed to its own node");
}

}  // namespace
}  // namespace pmsb
