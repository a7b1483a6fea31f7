// Tests of the multi-switch network substrate: topology arithmetic, and the
// behaviour the paper cites from [Dally90] on the mesh wormhole fabric --
// delivery, latency, saturation, lanes and deadlock freedom.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fabric/fabric.hpp"
#include "net/topology.hpp"

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

TEST(Topology, StageArithmeticIsMultistageOnly) {
  // Direct kinds have no stages: elements_per_stage() is 0, so stage_of and
  // element_of would divide by zero.
  const Topology mesh{TopologyKind::kMesh2D, 4, 4};
  EXPECT_EQ(mesh.elements_per_stage(), 0u);
  EXPECT_DEATH((void)mesh.stage_of(5), "multistage");
  EXPECT_DEATH((void)mesh.element_of(5), "multistage");
  const Topology banyan{TopologyKind::kBanyan, 8, 1};
  EXPECT_EQ(banyan.stage_of(5), 1u);
  EXPECT_EQ(banyan.element_of(5), 1u);
}

// ---------------------------------------------------------------------------
// Wormhole transport on the mesh: single-lane XY routers with credit flow
// control, the [Dally90] setting of the paper's section 2.1 citation.

/// One mesh wormhole fabric, run for `warmup` then `measure` cycles.
struct MeshRun {
  fabric::FabricStats warm;
  fabric::FabricStats end;
  Cycle measure = 0;
  unsigned nodes = 0;

  /// Accepted throughput in flits/node/cycle over the measured window.
  double accepted() const {
    return static_cast<double>(end.flits_delivered - warm.flits_delivered) /
           (static_cast<double>(nodes) * static_cast<double>(measure));
  }
};

MeshRun run_mesh(unsigned side, double load, unsigned message_flits, unsigned lanes,
                 std::uint64_t seed, Cycle warmup, Cycle measure) {
  const Topology mesh{TopologyKind::kMesh2D, side, side};
  fabric::FabricConfig cfg;
  cfg.link_pipe_stages = 1;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.load = load;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = message_flits;
  const auto fab = fabric::Fabric::build(mesh, cfg);
  EXPECT_TRUE(fab->wormhole());
  MeshRun r;
  r.measure = measure;
  r.nodes = mesh.nodes();
  fab->run(warmup);
  r.warm = fab->stats();
  fab->run(measure);
  r.end = fab->stats();
  EXPECT_EQ(r.end.payload_errors, 0u);
  return r;
}

TEST(Wormhole, LanesRaiseSaturationAtConstantStorage) {
  // [Dally90]'s actual point, and the contrast to the paper's "1 lane"
  // citation: splitting the same 16 flits of buffering into 2 or 4 lanes
  // raises the saturation throughput substantially.
  auto accepted_at = [](unsigned lanes) {
    return run_mesh(8, 0.9, 20, lanes, 11, 5000, 20000).accepted();
  };
  const double one = accepted_at(1);
  const double two = accepted_at(2);
  const double four = accepted_at(4);
  EXPECT_GT(two, one * 1.15);
  EXPECT_GT(four, two);
  EXPECT_GT(four, one * 1.25);
}

TEST(Wormhole, DeliversEverythingAtLightLoad) {
  const MeshRun r = run_mesh(4, 0.05, 20, 1, 3, 1000, 19000);
  EXPECT_GT(r.end.delivered, 0u);
  // Light load: deliveries keep pace with arrivals (no growing backlog).
  EXPECT_LT(r.end.backlog, 10u);
  EXPECT_NEAR(r.accepted(), 0.05, 0.01);
}

TEST(Wormhole, LatencyGrowsWithLoad) {
  auto mean_latency_at = [](double load) {
    return run_mesh(4, load, 20, 1, 4, 0, 30000).end.mean_latency;
  };
  const double lo = mean_latency_at(0.02);
  const double hi = mean_latency_at(0.15);
  EXPECT_GT(lo, 20.0);  // At least serialization: 20 flits.
  EXPECT_GT(hi, lo);
}

TEST(Wormhole, SaturatesWellBelowCapacity) {
  // The [Dally90, 1 lane] phenomenon (section 2.1): with 20-flit messages
  // and 16-flit buffers, accepted throughput plateaus far below link rate.
  const MeshRun r = run_mesh(8, 0.9, 20, 1, 5, 5000, 25000);
  EXPECT_LT(r.accepted(), 0.45);
  EXPECT_GT(r.accepted(), 0.05);
  EXPECT_GT(r.end.backlog, 50u);  // Clearly saturated.
}

TEST(Wormhole, NoDeadlockUnderSustainedOverload) {
  // XY dimension-order routing on a mesh is deadlock-free even single-lane:
  // deliveries must keep happening arbitrarily late into an overloaded run.
  const MeshRun r = run_mesh(8, 1.0, 20, 1, 6, 10000, 10000);
  EXPECT_GT(r.end.delivered, r.warm.delivered + 50);
  EXPECT_GT(r.end.backlog, r.warm.backlog);  // Offered stays above accepted.
}

TEST(Wormhole, MessagesArriveIntact) {
  // Every message streams its flits in sequence (the sinks abort on a gap),
  // carries verified payloads, and takes at least its serialization time.
  const MeshRun r = run_mesh(4, 0.08, 10, 1, 7, 0, 20000);
  ASSERT_GT(r.end.delivered, 100u);
  EXPECT_GE(r.end.min_latency, 10 - 1);
  EXPECT_GE(r.end.flits_delivered, r.end.delivered * 10);
}

}  // namespace
}  // namespace pmsb::net
