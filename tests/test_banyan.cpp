// Tests of the multistage networks behind the unified construction path:
// exact wiring/routing of the kBanyan / kOmega / kClos topology kinds, and
// flit-level wormhole fabrics built through fabric::Fabric::build.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/worm.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "traffic/spec.hpp"

namespace pmsb::fabric {

/// Test access to a WormRouter's running counts, to corrupt them.
struct WormRouterPeer {
  static void bump_wanting(WormRouter& r, unsigned out) { ++r.out_[out].wanting; }
  static void bump_held(WormRouter& r) { ++r.flits_held_; }
};

}  // namespace pmsb::fabric

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
      Topology{TopologyKind::kMesh2D, 4, 4},
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

/// Golden outputs of the wormhole router across lane geometries: one lane,
/// single-flit messages (head == tail), a lane depth that is not a power of
/// two, 32 lanes, every topology kind, and a near-idle load at which idle
/// skipping fires. Unlike RebuildReproducesDigest, which compares two builds
/// of the same code, these values were captured once and pin the router's
/// allocation and arbitration order across rewrites of its datapath.
TEST(WormFabric, PinnedDigestsAcrossLaneGeometries) {
  struct Pin {
    const char* what;
    Topology topo;
    unsigned lanes, buffer_flits, message_flits;
    const char* traffic;
    std::uint64_t injected, delivered, flits_delivered, uid_digest;
    Cycle max_latency;
    std::uint64_t rounds_skipped;
  };
  const std::vector<Pin> pins = {
      // clang-format off
      {"banyan16 1 lane", Topology{TopologyKind::kBanyan, 16, 1}, 1, 3, 4, "uniform:0.5",
       40136, 36148, 144601, 0x9a9bb980bdbff50dULL, 2481, 0},
      {"banyan16 4 lanes depth 3 1-flit", Topology{TopologyKind::kBanyan, 16, 1}, 4, 12, 1,
       "hotsenders:0.25,0.95", 303902, 218745, 218745, 0xef3d1823f17125ccULL, 15949, 0},
      {"omega32 32 lanes", Topology{TopologyKind::kOmega, 32, 1}, 32, 64, 8,
       "hotsenders:0.25,0.95", 75821, 57317, 460521, 0xefb9c2f434c44963ULL, 18105, 0},
      {"clos16 3 lanes 5-flit", Topology{TopologyKind::kClos, 16, 1, 4}, 3, 9, 5, "uniform:0.7",
       44949, 44408, 222101, 0x803906c3eda6fae4ULL, 670, 0},
      {"clos16 8 lanes hotspot", Topology{TopologyKind::kClos, 16, 1, 4}, 8, 48, 8,
       "hotspot:0.5,0.3", 12018, 4842, 38760, 0x29e152d4ca546ea4ULL, 13571, 0},
      {"banyan32 near idle", Topology{TopologyKind::kBanyan, 32, 1}, 4, 16, 8, "uniform:0.002",
       146, 146, 1168, 0xf205d58e8944fd71ULL, 11, 131},
      {"mesh8x8 2 lanes", Topology{TopologyKind::kMesh2D, 8, 8}, 2, 16, 8, "uniform:0.5",
       79703, 64828, 518804, 0xf98d5116adfa902aULL, 9355, 0},
      // clang-format on
  };
  for (const Pin& pin : pins) {
    fabric::FabricConfig cfg;
    cfg.topo = pin.topo;
    cfg.link_pipe_stages = 1;
    cfg.seed = 11;
    // One task: its idle jumps are bounded by nothing but its own wakes, so
    // rounds_skipped is deterministic. With several tasks a jump also stops
    // at wherever the neighbor task has got to, which timing decides. The
    // other columns are the same under any partition.
    cfg.threads = 1;
    cfg.idle_skip = 1;
    cfg.lanes = pin.lanes;
    cfg.buffer_flits = pin.buffer_flits;
    cfg.message_flits = pin.message_flits;
    cfg.traffic = pin.traffic;
    const auto fab = fabric::Fabric::build(pin.topo, cfg);
    fab->run(20000);
    const fabric::FabricStats st = fab->stats();
    SCOPED_TRACE(pin.what);
    EXPECT_EQ(st.payload_errors, 0u);
    EXPECT_EQ(st.injected, pin.injected);
    EXPECT_EQ(st.delivered, pin.delivered);
    EXPECT_EQ(st.flits_delivered, pin.flits_delivered);
    EXPECT_EQ(st.uid_digest, pin.uid_digest);
    EXPECT_EQ(st.max_latency, pin.max_latency);
    EXPECT_EQ(fab->rounds_skipped(), pin.rounds_skipped);
  }
}

/// Runs one 2x2 router under PMSB_CHECK=1 (set in this process) for 500
/// busy cycles, applies `corrupt`, runs one more cycle and exits 0.
template <class Corrupt>
void run_checked_router(Corrupt&& corrupt) {
  setenv("PMSB_CHECK", "1", 1);
  const Topology topo{TopologyKind::kBanyan, 2, 1};
  Rng drng(1);
  const auto dests = traffic::GeneratorSpec::parse("uniform").make_dest(2, drng);
  fabric::WormParams wp;
  wp.lanes = 4;
  wp.lane_depth = 3;
  wp.message_flits = 4;
  wp.messages_per_cycle = 0.2;
  fabric::WormRouter router(&topo, 0, wp, dests.get());
  for (unsigned e = 0; e < 2; ++e) router.add_source(topo.ingress_of(e).second, e, Rng(e + 1));
  for (unsigned p = 0; p < 2; ++p) router.add_sink(p, topo.egress_endpoint(0, p));
  Engine eng;
  eng.add(&router);
  eng.run(500);
  corrupt(router);
  eng.run(1);
  std::exit(0);
}

/// Under PMSB_CHECK=1 the router recounts its running counts from the lane
/// state after every eval: an honest run passes, a corrupted count aborts.
TEST(WormFabric, CheckedModeRecountsRunningCounts) {
  EXPECT_EXIT(run_checked_router([](fabric::WormRouter&) {}), testing::ExitedWithCode(0), "");
  EXPECT_DEATH(run_checked_router(
                   [](fabric::WormRouter& r) { fabric::WormRouterPeer::bump_wanting(r, 0); }),
               "unbound front heads");
  EXPECT_DEATH(
      run_checked_router([](fabric::WormRouter& r) { fabric::WormRouterPeer::bump_held(r); }),
      "buffered flits");
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
  auto accepts = [&](const Topology& topo) {
    fabric::FabricConfig cfg = base();
    cfg.topo = topo;
    EXPECT_TRUE(cfg.check().ok()) << cfg.check().summary();
  };
  accepts(Topology{TopologyKind::kBanyan, 1u << 16, 1});  // 2^16 endpoints: the limit.
  accepts(Topology{TopologyKind::kClos, 256 * 256, 1, 256});
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
  // WormFlit::dest is 16 bits: 2^17 banyan endpoints or a radix-257 Clos
  // (66049 endpoints) would wrap destinations.
  rejects(Code::kBadTopology,
          [](auto& c) { c.topo = Topology{TopologyKind::kBanyan, 1u << 17, 1}; });
  rejects(Code::kBadTopology,
          [](auto& c) { c.topo = Topology{TopologyKind::kClos, 257 * 257, 1, 257}; });
  rejects(Code::kBadPorts, [](auto& c) { c.lanes = 33; });
  rejects(Code::kBadCapacity, [](auto& c) { c.buffer_flits = 18; });
  rejects(Code::kBadCellWords, [](auto& c) { c.message_flits = 0; });
  rejects(Code::kBadLinkStages, [](auto& c) { c.link_pipe_stages = 0; });
  rejects(Code::kBadLoad, [](auto& c) { c.load = 1.5; });
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "uniform:nan"; });
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "hotspot:nan,0.5"; });
  // Fabrics run Bernoulli arrivals only; burst shapes are slot-level.
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "bursty:0.5,12"; });
  rejects(Code::kBadLoad, [](auto& c) { c.traffic = "pareto:0.6,1.4,10"; });
  rejects(Code::kBadTopology, [](auto& c) { c.fast_node = [](unsigned) { return true; }; });
  rejects(Code::kBadTopology, [](auto& c) { c.flight_recorder = true; });
  // The mesh runs the wormhole transport too: same cell-only options, and
  // at least two routers.
  const Topology mesh{TopologyKind::kMesh2D, 4, 4};
  accepts(mesh);
  rejects(Code::kBadTopology, [&](auto& c) {
    c.topo = mesh;
    c.fast_node = [](unsigned) { return true; };
  });
  rejects(Code::kBadTopology, [&](auto& c) {
    c.topo = mesh;
    c.flight_recorder = true;
  });
  rejects(Code::kBadTopology,
          [](auto& c) { c.topo = Topology{TopologyKind::kMesh2D, 1, 1}; });
}

}  // namespace
}  // namespace pmsb::net
