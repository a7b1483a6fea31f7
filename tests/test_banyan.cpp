// Tests of the multistage networks behind the unified construction path:
// exact wiring/routing of the kBanyan / kOmega / kClos topology kinds, and
// flit-level wormhole fabrics built through fabric::Fabric::build.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/topology.hpp"

namespace pmsb::net {
namespace {

// ---------------------------------------------------------------------------
// Topology kind exactness
// ---------------------------------------------------------------------------

TEST(MultistageTopology, BanyanGeometry) {
  const Topology t{TopologyKind::kBanyan, 16, 1};
  EXPECT_TRUE(t.multistage());
  EXPECT_EQ(t.endpoints(), 16u);
  EXPECT_EQ(t.stages(), 4u);            // log2(16)
  EXPECT_EQ(t.elements_per_stage(), 8u);  // N/2
  EXPECT_EQ(t.nodes(), 32u);
  EXPECT_EQ(t.required_ports(), 2u);
  EXPECT_EQ(t.hops(0, 15), t.stages() - 1);
  EXPECT_EQ(t.hops(3, 3), t.stages() - 1);  // no local bypass
  EXPECT_EQ(t.describe(), "banyan 16");
}

TEST(MultistageTopology, OmegaGeometry) {
  const Topology t{TopologyKind::kOmega, 8, 1};
  EXPECT_EQ(t.stages(), 3u);
  EXPECT_EQ(t.elements_per_stage(), 4u);
  EXPECT_EQ(t.nodes(), 12u);
  EXPECT_EQ(t.describe(), "omega 8");
}

TEST(MultistageTopology, ClosGeometry) {
  const Topology t{TopologyKind::kClos, 16, 1, /*radix=*/4};
  EXPECT_EQ(t.stages(), 3u);
  EXPECT_EQ(t.elements_per_stage(), 4u);  // k
  EXPECT_EQ(t.nodes(), 12u);
  EXPECT_EQ(t.required_ports(), 4u);
  EXPECT_EQ(t.describe(), "clos 16 (radix 4)");
}

/// Banyan / omega per-stage routing is the classic single-bit test: stage s
/// of a log2(N)-stage network corrects bit n-1-s of the destination,
/// independent of where the flit currently is.
TEST(MultistageTopology, BanyanAndOmegaRouteOnDestinationBits) {
  for (const TopologyKind kind : {TopologyKind::kBanyan, TopologyKind::kOmega}) {
    const Topology t{kind, 16, 1};
    const unsigned n = 4;  // log2(16)
    for (unsigned node = 0; node < t.nodes(); ++node) {
      const unsigned s = t.stage_of(node);
      for (unsigned in = 0; in < 2; ++in)
        for (unsigned dest = 0; dest < 16; ++dest)
          EXPECT_EQ(t.route_stage(node, in, dest), (dest >> (n - 1 - s)) & 1u);
    }
  }
}

/// The Clos wiring from the header: ingress j's output p reaches middle p's
/// input j; middle m's output q reaches egress q's input m.
TEST(MultistageTopology, ClosWiringExact) {
  const Topology t{TopologyKind::kClos, 16, 1, /*radix=*/4};
  const unsigned k = 4;
  for (unsigned j = 0; j < k; ++j) {
    for (unsigned p = 0; p < k; ++p) {
      const unsigned ingress = t.node_id(0, j);
      ASSERT_EQ(static_cast<unsigned>(t.neighbor(ingress, p)), t.node_id(1, p));
      EXPECT_EQ(t.peer_in_port(ingress, p), j);
      const unsigned middle = t.node_id(1, j);
      ASSERT_EQ(static_cast<unsigned>(t.neighbor(middle, p)), t.node_id(2, p));
      EXPECT_EQ(t.peer_in_port(middle, p), j);
    }
  }
}

/// Strongest exactness check, implementation-independent: walk every
/// (source, destination) pair from its ingress port through route_stage /
/// neighbor / peer_in_port and require arrival at exactly `dest` after
/// exactly stages() - 1 inter-element links.
void walk_every_pair(const Topology& t) {
  const unsigned n = t.endpoints();
  for (unsigned src = 0; src < n; ++src) {
    for (unsigned dest = 0; dest < n; ++dest) {
      auto [node, in_port] = t.ingress_of(src);
      unsigned links = 0;
      while (t.stage_of(node) + 1 < t.stages()) {
        const unsigned out = t.route_stage(node, in_port, dest);
        const int next = t.neighbor(node, out);
        ASSERT_GE(next, 0);
        in_port = t.peer_in_port(node, out);
        node = static_cast<unsigned>(next);
        ++links;
      }
      const unsigned out = t.route_stage(node, in_port, dest);
      EXPECT_EQ(t.egress_endpoint(node, out), dest)
          << t.describe() << ": " << src << " -> " << dest;
      EXPECT_EQ(links, t.stages() - 1);
    }
  }
}

TEST(MultistageTopology, BanyanEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kBanyan, 16, 1});
  walk_every_pair(Topology{TopologyKind::kBanyan, 32, 1});
}

TEST(MultistageTopology, OmegaEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kOmega, 16, 1});
  walk_every_pair(Topology{TopologyKind::kOmega, 32, 1});
}

TEST(MultistageTopology, ClosEveryPairReachesItsEgress) {
  walk_every_pair(Topology{TopologyKind::kClos, 16, 1, 4});
  walk_every_pair(Topology{TopologyKind::kClos, 9, 1, 3});
}

// ---------------------------------------------------------------------------
// Wormhole fabrics through the one public construction path
// ---------------------------------------------------------------------------

/// All fabrics go through the one public construction path,
/// fabric::Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_worm(const Topology& topo, const char* traffic,
                                          unsigned lanes) {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  cfg.link_pipe_stages = 1;
  cfg.seed = 7;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 4;
  cfg.traffic = traffic;
  return fabric::Fabric::build(topo, cfg);
}

/// Lossless flit transport: every kind delivers, verifies payloads end to
/// end, and conserves messages (injected = delivered + backlog + in flight).
TEST(WormFabric, AllKindsDeliverLosslessly) {
  const std::vector<Topology> kinds = {
      Topology{TopologyKind::kBanyan, 16, 1},
      Topology{TopologyKind::kOmega, 16, 1},
      Topology{TopologyKind::kClos, 16, 1, 4},
  };
  for (const Topology& topo : kinds) {
    const auto fab = make_worm(topo, "uniform:0.4", 2);
    fab->run(4000);
    const fabric::FabricStats st = fab->stats();
    EXPECT_GT(st.delivered, 0u) << topo.describe();
    EXPECT_EQ(st.payload_errors, 0u) << topo.describe();
    EXPECT_EQ(st.injected, st.delivered + st.backlog + st.in_network)
        << topo.describe();
  }
}

/// Permutation traffic is contention-light; the same seed must reproduce
/// the same delivery digest on rebuilt fabrics (construction determinism).
TEST(WormFabric, RebuildReproducesDigest) {
  const Topology topo{TopologyKind::kBanyan, 16, 1};
  const auto a = make_worm(topo, "permutation:0.5", 2);
  const auto b = make_worm(topo, "permutation:0.5", 2);
  a->run(3000);
  b->run(3000);
  EXPECT_GT(a->stats().delivered, 0u);
  EXPECT_EQ(a->stats().uid_digest, b->stats().uid_digest);
  EXPECT_EQ(a->stats().delivered, b->stats().delivered);
}

/// FabricConfig::check() validates multistage fabrics without a per-node
/// switch: topology shape, lane/buffer/message geometry, the shared link and
/// load checks, the traffic spec, and the cell-only options.
TEST(WormFabric, ConfigCheckRejectsBadSettings) {
  using Code = ConfigIssue::Code;
  auto base = [] {
    fabric::FabricConfig cfg;
    cfg.topo = Topology{TopologyKind::kBanyan, 16, 1};
    cfg.link_pipe_stages = 1;
    cfg.lanes = 4;
    cfg.buffer_flits = 16;
    cfg.traffic = "hotsenders:0.25,0.95";
    return cfg;
  };
  EXPECT_TRUE(base().check().ok());
  auto rejects = [&](Code code, auto&& mutate) {
    fabric::FabricConfig cfg = base();
    mutate(cfg);
    const ConfigValidation v = cfg.check();
    EXPECT_TRUE(v.has(code)) << v.summary();
    EXPECT_THROW(fabric::Fabric::build(cfg.topo, cfg), std::invalid_argument);
  };
  rejects(Code::kBadTopology,
          [](auto& c) { c.topo = Topology{TopologyKind::kBanyan, 12, 1}; });
  rejects(Code::kBadTopology,
          [](auto& c) { c.topo = Topology{TopologyKind::kClos, 12, 1, 4}; });
  rejects(Code::kBadPorts, [](auto& c) { c.lanes = 33; });
  rejects(Code::kBadCapacity, [](auto& c) { c.buffer_flits = 18; });
  rejects(Code::kBadCellWords, [](auto& c) { c.message_flits = 0; });
  rejects(Code::kBadLinkStages, [](auto& c) { c.link_pipe_stages = 0; });
  rejects(Code::kBadLoad, [](auto& c) { c.load = 1.5; });
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "uniform:nan"; });
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "hotspot:nan,0.5"; });
  rejects(Code::kBadTopology, [](auto& c) { c.fast_node = [](unsigned) { return true; }; });
  rejects(Code::kBadTopology, [](auto& c) { c.flight_recorder = true; });
}

}  // namespace
}  // namespace pmsb::net
