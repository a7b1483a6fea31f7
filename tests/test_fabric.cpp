// Tests of the sharded fabric engine (src/fabric/) and of the
// multi-subscriber event API it rides on (core/event_hub.hpp).
//
// The load-bearing property is the determinism contract: a fabric run must
// produce bit-identical delivered-cell digests, drop counts, latencies and
// metric samples at ANY thread count and under any partition of the nodes
// into tasks. The conservative lookahead (link_pipe_stages) is what makes
// that hold; these tests pin it with thread-count and partition comparisons
// on real topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "core/testbench.hpp"
#include "fabric/channel.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"

namespace pmsb {

namespace fabric {
// Test access to a bridge's cell pool (corrupts it in death tests).
struct PortBridgePeer {
  static void leak_buffer(PortBridge& b) { --b.n_free_; }
};
}  // namespace fabric

namespace {

/// All fabrics go through the one public construction path,
/// fabric::Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

// ---------------------------------------------------------------------------
// EventHub: ordering and RAII.

TEST(EventHub, FanOutInSubscriptionOrder) {
  EventHub hub;
  std::vector<int> order;
  SwitchEvents a, b, c;
  a.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(1); };
  b.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(2); };
  c.on_head = [&order](unsigned, Cycle, unsigned) { order.push_back(3); };
  const Subscription sa = hub.subscribe(std::move(a));
  const Subscription sb = hub.subscribe(std::move(b));
  const Subscription sc = hub.subscribe(std::move(c));
  hub.head(0, 0, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventHub, SubscriptionRaiiUnsubscribes) {
  EventHub hub;
  int hits = 0;
  {
    SwitchEvents ev;
    ev.on_accept = [&hits](unsigned, Cycle, Cycle) { ++hits; };
    const Subscription s = hub.subscribe(std::move(ev));
    EXPECT_EQ(hub.subscriber_count(), 1u);
    hub.accept(0, 0, 0);
    EXPECT_EQ(hits, 1);
  }
  EXPECT_EQ(hub.subscriber_count(), 0u);
  hub.accept(0, 0, 0);
  EXPECT_EQ(hits, 1);  // Dead subscription no longer fires.
}

TEST(EventHub, MiddleUnsubscribePreservesOrder) {
  EventHub hub;
  std::vector<int> order;
  SwitchEvents a, b, c;
  a.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(1); };
  b.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(2); };
  c.on_drop = [&order](unsigned, Cycle, DropReason) { order.push_back(3); };
  const Subscription sa = hub.subscribe(std::move(a));
  Subscription sb = hub.subscribe(std::move(b));
  const Subscription sc = hub.subscribe(std::move(c));
  sb.reset();
  hub.drop(0, 0, DropReason::kNoSlot);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventHub, SubscriptionOutlivingHubIsSafe) {
  Subscription s;
  {
    EventHub hub;
    SwitchEvents ev;
    ev.on_head = [](unsigned, Cycle, unsigned) {};
    s = hub.subscribe(std::move(ev));
    EXPECT_TRUE(s.active());
  }
  EXPECT_FALSE(s.active());
  s.reset();  // Must not touch the dead hub.
}

// Two independent subscribers on a live switch see the SAME event stream, in
// subscription order, and one resetting mid-run does not disturb the other.
// (This descends from the deleted set_events() shim-equivalence test: with
// the shim gone, subscribe() is the only attachment path, so the property
// worth pinning is multi-subscriber stream identity.)
TEST(EventHub, SubscribersSeeIdenticalStreamsFromLiveSwitch) {
  struct Recorder {
    std::vector<std::string> log;
    SwitchEvents events() {
      SwitchEvents ev;
      ev.on_head = [this](unsigned i, Cycle a0, unsigned d) {
        log.push_back("h" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(d));
      };
      ev.on_accept = [this](unsigned i, Cycle a0, Cycle t0) {
        log.push_back("a" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(t0));
      };
      ev.on_drop = [this](unsigned i, Cycle a0, DropReason w) {
        log.push_back("d" + std::to_string(i) + "," + std::to_string(a0) + "," +
                      std::to_string(static_cast<int>(w)));
      };
      ev.on_read_grant = [this](unsigned o, unsigned i, Cycle tr, Cycle, Cycle, bool) {
        log.push_back("r" + std::to_string(o) + "," + std::to_string(i) + "," +
                      std::to_string(tr));
      };
      return ev;
    }
  };

  const SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.9;
  spec.seed = 7;

  Recorder first, second, ephemeral;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, false);
  // Counted relative to the testbench's own subscribers (an InvariantChecker
  // under PMSB_CHECK=1), so the test means the same in every build mode.
  const std::size_t before = tb.dut().events().subscriber_count();
  const Subscription sa = tb.dut().events().subscribe(first.events());
  Subscription se = tb.dut().events().subscribe(ephemeral.events());
  const Subscription sb = tb.dut().events().subscribe(second.events());
  EXPECT_EQ(tb.dut().events().subscriber_count(), before + 3);

  tb.run(300);
  se.reset();  // Dropping the middle subscriber must not disturb the others.
  EXPECT_EQ(tb.dut().events().subscriber_count(), before + 2);
  tb.run(300);

  ASSERT_FALSE(first.log.empty());
  EXPECT_EQ(first.log, second.log);
  // The ephemeral subscriber saw exactly the first segment's prefix.
  ASSERT_LE(ephemeral.log.size(), first.log.size());
  EXPECT_TRUE(std::equal(ephemeral.log.begin(), ephemeral.log.end(), first.log.begin()));
}

// Scoreboard + InvariantChecker + an extra user subscriber on one switch:
// the redesign's whole point. All three observe the same run without
// displacing each other.
TEST(EventHub, ScoreboardCheckerAndUserTapCoexist) {
  const SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 11;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/true);

  check::InvariantChecker checker;
  checker.attach(tb.dut(), tb.engine());

  std::uint64_t taps = 0;
  SwitchEvents ev;
  ev.on_accept = [&taps](unsigned, Cycle, Cycle) { ++taps; };
  const Subscription s = tb.dut().events().subscribe(std::move(ev));
  EXPECT_GE(tb.dut().events().subscriber_count(), 3u);

  tb.run(800);
  EXPECT_TRUE(checker.ok()) << checker.total_violations();
  EXPECT_EQ(taps, tb.dut().stats().accepted);  // Tap saw every accept...
  EXPECT_TRUE(tb.scoreboard().ok());           // ...and the scoreboard still verifies.
  EXPECT_GT(tb.scoreboard().delivered(), 0u);
}

// ---------------------------------------------------------------------------
// Channel timing.

TEST(FabricChannel, ReproducesLinkPipelineDelay) {
  fabric::Channel ch(3);  // S = 3 -> total wire delay S + 1 (bridge re-drive).
  for (Cycle t = 0; t < 20; ++t) {
    ch.write(t, Flit{true, false, static_cast<Word>(100 + t)});
    const Flit& f = ch.read(t);
    if (t < 3) {
      EXPECT_FALSE(f.valid) << t;
    } else {
      EXPECT_EQ(f.data, static_cast<Word>(100 + t - 3)) << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Fabric: validation, conservation, determinism.

fabric::FabricConfig small_torus(unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 4, 4};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 3;
  cfg.load = 0.6;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

TEST(FabricConfigCheck, RejectsBadGeometry) {
  fabric::FabricConfig cfg = small_torus(1);
  cfg.node.n_ports = 2;  // Too few ports for a 2D torus.
  cfg.node.cell_words = 4;
  cfg.node.capacity_segments = 4 * 32;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadPorts));

  cfg = small_torus(1);
  cfg.link_pipe_stages = 0;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadLinkStages));

  cfg = small_torus(1);
  cfg.load = 1.5;
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadLoad));

  // Cell fabrics take every destination kind with Bernoulli arrivals and a
  // finite embedded load; the slot-level burst shapes are rejected.
  for (const char* traffic : {"hotspot:0.5", "hotsenders:0.25,0.95", "permutation:0.5"}) {
    cfg = small_torus(1);
    cfg.traffic = traffic;
    EXPECT_TRUE(cfg.check().ok()) << traffic;
  }
  for (const char* traffic :
       {"uniform:nan", "pareto:nan,1.4,16", "bursty:0.5,12", "pareto:0.6,1.4,10"}) {
    cfg = small_torus(1);
    cfg.traffic = traffic;
    EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadLoad)) << traffic;
  }

  cfg = small_torus(1);
  cfg.topo = net::Topology{net::TopologyKind::kRing, 8, 2};
  EXPECT_TRUE(cfg.check().has(ConfigIssue::Code::kBadTopology));
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Fabric, DeliversAndConserves) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  EXPECT_EQ(st.cycles, 2000);
  EXPECT_GT(st.injected, 0u);
  EXPECT_GT(st.delivered, 0u);
  EXPECT_EQ(st.payload_errors, 0u);  // End-to-end payload integrity.
  EXPECT_EQ(st.injected, st.delivered + st.dropped() + st.backlog + st.in_network);
  // Minimum possible latency: one hop over a D+1-cycle link, plus cell
  // serialization and switch transit.
  EXPECT_GE(st.min_latency, static_cast<Cycle>(fab->config().link_pipe_stages + 1));
  EXPECT_GT(st.mean_latency, 0.0);
  // Every delivered cell took at least one link.
  ASSERT_GE(st.by_hops.size(), 2u);
  EXPECT_EQ(st.by_hops[0].cells, 0u);
}

TEST(Fabric, HopAccountingMatchesTopology) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(1500);
  const fabric::FabricStats st = fab->stats();
  // 4x4 torus diameter is 4: no route is longer.
  EXPECT_LE(st.by_hops.size(), 5u);
  std::uint64_t sum = 0;
  for (const auto& row : st.by_hops) sum += row.cells;
  EXPECT_EQ(sum, st.delivered);
}

// The headline contract: bit-identical results at any thread count.
TEST(Fabric, DeterministicAcrossThreadCounts) {
  const auto f1 = make_fabric(small_torus(1));
  const auto f2 = make_fabric(small_torus(2));
  const auto f4 = make_fabric(small_torus(4));
  ASSERT_EQ(f1->threads(), 1u);
  ASSERT_EQ(f2->threads(), 2u);
  ASSERT_EQ(f4->threads(), 4u);
  f1->run(2000);
  f2->run(2000);
  f4->run(2000);
  const fabric::FabricStats a = f1->stats();
  const fabric::FabricStats b = f2->stats();
  const fabric::FabricStats c = f4->stats();

  EXPECT_EQ(a.uid_digest, b.uid_digest);
  EXPECT_EQ(a.uid_digest, c.uid_digest);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, c.delivered);
  EXPECT_EQ(a.dropped_no_addr, b.dropped_no_addr);
  EXPECT_EQ(a.dropped_no_slot, b.dropped_no_slot);
  EXPECT_EQ(a.dropped_out_limit, b.dropped_out_limit);
  EXPECT_EQ(a.backlog, c.backlog);
  EXPECT_EQ(a.in_network, c.in_network);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_DOUBLE_EQ(a.mean_latency, c.mean_latency);
  EXPECT_EQ(a.min_latency, c.min_latency);
  EXPECT_EQ(a.max_latency, c.max_latency);
  ASSERT_EQ(a.by_hops.size(), c.by_hops.size());
  for (std::size_t h = 0; h < a.by_hops.size(); ++h) {
    EXPECT_EQ(a.by_hops[h].cells, b.by_hops[h].cells) << h;
    EXPECT_EQ(a.by_hops[h].cells, c.by_hops[h].cells) << h;
    EXPECT_DOUBLE_EQ(a.by_hops[h].mean_latency, c.by_hops[h].mean_latency) << h;
  }

  // Per-node switch statistics agree too (the partition is invisible).
  for (unsigned i = 0; i < f1->nodes(); ++i) {
    EXPECT_EQ(f1->node_switch(i).stats().accepted, f4->node_switch(i).stats().accepted) << i;
    EXPECT_EQ(f1->node_switch(i).stats().read_grants, f4->node_switch(i).stats().read_grants)
        << i;
  }
}

TEST(Fabric, DeterministicOnRing) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kRing, 8, 1};
  cfg.node = SwitchConfig::for_ports(2);
  cfg.link_pipe_stages = 2;
  cfg.load = 0.4;
  cfg.seed = 5;
  cfg.threads = 1;
  const auto f1 = make_fabric(cfg);
  cfg.threads = 3;  // Uneven shard sizes on purpose.
  const auto f3 = make_fabric(cfg);
  f1->run(1600);
  f3->run(1600);
  EXPECT_EQ(f1->stats().uid_digest, f3->stats().uid_digest);
  EXPECT_EQ(f1->stats().delivered, f3->stats().delivered);
  EXPECT_EQ(f1->stats().payload_errors, 0u);
  EXPECT_GT(f1->stats().delivered, 0u);
}

// Metric samples (taken at round boundaries) follow the same contract: same
// cadence, same values, any thread count.
TEST(Fabric, MetricsSamplingIsThreadCountInvariant) {
  obs::MetricsRegistry m1, m4;
  const auto f1 = make_fabric(small_torus(1));
  const auto f4 = make_fabric(small_torus(4));
  f1->register_metrics(&m1);
  f4->register_metrics(&m4);
  f1->run(1200);
  f4->run(1200);
  for (const char* g : {"fabric.injected", "fabric.delivered", "fabric.dropped",
                        "fabric.backlog", "fabric.in_network", "fabric.latency.mean"}) {
    const obs::GaugeStats* a = m1.find_gauge(g);
    const obs::GaugeStats* b = m4.find_gauge(g);
    ASSERT_NE(a, nullptr) << g;
    ASSERT_NE(b, nullptr) << g;
    EXPECT_EQ(a->samples, b->samples) << g;
    EXPECT_DOUBLE_EQ(a->last, b->last) << g;
    EXPECT_DOUBLE_EQ(a->min, b->min) << g;
    EXPECT_DOUBLE_EQ(a->max, b->max) << g;
    EXPECT_DOUBLE_EQ(a->sum, b->sum) << g;
  }
  const obs::GaugeStats* delivered = m1.find_gauge("fabric.delivered");
  EXPECT_EQ(delivered->samples,
            (1200 + f1->config().link_pipe_stages - 1) / f1->config().link_pipe_stages);
  EXPECT_DOUBLE_EQ(delivered->last, static_cast<double>(f1->stats().delivered));
}

// Multiple run() calls continue the same simulation (rounds restart cleanly
// at the boundary).
TEST(Fabric, SplitRunMatchesSingleRun) {
  const auto whole = make_fabric(small_torus(2));
  const auto split = make_fabric(small_torus(2));
  whole->run(1400);
  split->run(500);
  split->run(137);  // Deliberately not a multiple of the lookahead.
  split->run(763);
  EXPECT_EQ(whole->stats().uid_digest, split->stats().uid_digest);
  EXPECT_EQ(whole->stats().delivered, split->stats().delivered);
  EXPECT_EQ(whole->now(), split->now());
}

// The fabric must stay deterministic when its worker count exceeds the
// machine's core count (the scheduler's park tier is what keeps it from
// livelocking there).
TEST(Fabric, DeterministicWhenOversubscribed) {
  fabric::FabricConfig cfg = small_torus(1);
  const auto f1 = make_fabric(cfg);
  cfg.threads = std::max(4u, std::thread::hardware_concurrency() + 2);
  const auto fmany = make_fabric(cfg);
  EXPECT_GE(fmany->threads(), 4u);
  f1->run(1200);
  fmany->run(1200);
  EXPECT_EQ(f1->stats().uid_digest, fmany->stats().uid_digest);
  EXPECT_EQ(f1->stats().delivered, fmany->stats().delivered);
  EXPECT_EQ(f1->stats().dropped(), fmany->stats().dropped());
}

// ---------------------------------------------------------------------------
// Idle skipping: bit-identical results with skipping forced on vs off.

void expect_same_stats(const fabric::FabricStats& a, const fabric::FabricStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.payload_errors, b.payload_errors);
  EXPECT_EQ(a.dropped_no_addr, b.dropped_no_addr);
  EXPECT_EQ(a.dropped_no_slot, b.dropped_no_slot);
  EXPECT_EQ(a.dropped_out_limit, b.dropped_out_limit);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.in_network, b.in_network);
  EXPECT_EQ(a.uid_digest, b.uid_digest);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  ASSERT_EQ(a.by_hops.size(), b.by_hops.size());
  for (std::size_t h = 0; h < a.by_hops.size(); ++h) {
    EXPECT_EQ(a.by_hops[h].cells, b.by_hops[h].cells) << h;
    EXPECT_DOUBLE_EQ(a.by_hops[h].mean_latency, b.by_hops[h].mean_latency) << h;
  }
}

fabric::FabricConfig low_load_torus(int idle_skip, unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 4, 4};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 3;
  cfg.load = 0.002;  // Sparse arrivals -> long skippable gaps.
  cfg.seed = 99;
  cfg.threads = threads;
  cfg.idle_skip = idle_skip;
  return cfg;
}

TEST(FabricIdleSkip, EquivalentToSteppedRunSingleThread) {
  const auto stepped = make_fabric(low_load_torus(/*idle_skip=*/0, 1));
  const auto skipped = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  obs::MetricsRegistry ms, mk;
  stepped->register_metrics(&ms);
  skipped->register_metrics(&mk);
  stepped->run(30000);
  skipped->run(30000);
  const fabric::FabricStats a = stepped->stats();
  EXPECT_GT(a.delivered, 0u);  // The run is not vacuous.
  expect_same_stats(a, skipped->stats());
  // Metric sampling cadence and values survive the skips too.
  for (const char* g : {"fabric.injected", "fabric.delivered", "fabric.dropped",
                        "fabric.backlog", "fabric.in_network", "fabric.latency.mean"}) {
    const obs::GaugeStats* x = ms.find_gauge(g);
    const obs::GaugeStats* y = mk.find_gauge(g);
    ASSERT_NE(x, nullptr) << g;
    ASSERT_NE(y, nullptr) << g;
    EXPECT_EQ(x->samples, y->samples) << g;
    EXPECT_DOUBLE_EQ(x->last, y->last) << g;
    EXPECT_DOUBLE_EQ(x->min, y->min) << g;
    EXPECT_DOUBLE_EQ(x->max, y->max) << g;
    EXPECT_DOUBLE_EQ(x->sum, y->sum) << g;
  }
}

TEST(FabricIdleSkip, EquivalentToSteppedRunSharded) {
  const auto stepped = make_fabric(low_load_torus(/*idle_skip=*/0, 2));
  const auto skipped = make_fabric(low_load_torus(/*idle_skip=*/1, 2));
  stepped->run(20000);
  skipped->run(20000);
  EXPECT_GT(stepped->stats().delivered, 0u);
  expect_same_stats(stepped->stats(), skipped->stats());
}

TEST(FabricIdleSkip, SplitRunsStillAlign) {
  const auto whole = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  const auto split = make_fabric(low_load_torus(/*idle_skip=*/1, 1));
  whole->run(9000);
  split->run(4100);  // Boundaries deliberately off the round grid.
  split->run(4900);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_stats(whole->stats(), split->stats());
}

// ---------------------------------------------------------------------------
// Mixed cycle-accurate / fast-model fabrics.

fabric::FabricConfig mixed_model_torus(unsigned threads) {
  fabric::FabricConfig cfg = small_torus(threads);
  // Checkerboard: even nodes exact, odd nodes behavioural.
  cfg.fast_node = [](unsigned node) { return node % 2 == 1; };
  return cfg;
}

// ---------------------------------------------------------------------------
// Observability: per-node flight recorders, merged HDR latency, telemetry.

TEST(FabricFlight, MergedRecorderIsThreadCountInvariant) {
  auto cfg = [](unsigned threads) {
    fabric::FabricConfig c = small_torus(threads);
    c.flight_recorder = true;
    c.flight_warmup = 200;
    return c;
  };
  const auto f1 = make_fabric(cfg(1));
  const auto f4 = make_fabric(cfg(4));
  f1->run(2000);
  f4->run(2000);
  const obs::FlightRecorder a = f1->merged_flight();
  const obs::FlightRecorder b = f4->merged_flight();
  EXPECT_GT(a.completed(), 0u);
  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.heads(), b.heads());
  for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
    const auto st = static_cast<obs::FlightStage>(s);
    EXPECT_EQ(a.stage(st).samples(), b.stage(st).samples());
    EXPECT_EQ(a.stage(st).sum(), b.stage(st).sum());
    EXPECT_EQ(a.stage(st).p50(), b.stage(st).p50());
    EXPECT_EQ(a.stage(st).p999(), b.stage(st).p999());
  }
  // The additive decomposition survives the merge.
  EXPECT_EQ(a.stage(obs::FlightStage::kTotal).sum(),
            a.stage(obs::FlightStage::kWaitGrant).sum() +
                a.stage(obs::FlightStage::kBuffer).sum() +
                a.stage(obs::FlightStage::kSerialize).sum());
  // Per-node access works and recorders exist for every node.
  for (unsigned i = 0; i < f1->nodes(); ++i) EXPECT_NE(f1->node_flight(i), nullptr);
}

TEST(FabricFlight, DisabledByDefault) {
  const auto fab = make_fabric(small_torus(1));
  fab->run(500);
  EXPECT_EQ(fab->node_flight(0), nullptr);
}

TEST(Fabric, LatencyHistogramMatchesScalarStats) {
  const auto fab = make_fabric(small_torus(2));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  ASSERT_GT(st.delivered, 0u);
  EXPECT_EQ(st.latency.samples(), st.delivered);
  EXPECT_EQ(st.latency.min(), static_cast<std::uint64_t>(st.min_latency));
  EXPECT_EQ(st.latency.max(), static_cast<std::uint64_t>(st.max_latency));
  EXPECT_NEAR(st.latency.mean(), st.mean_latency, 1e-9);
  EXPECT_GE(st.latency.p999(), st.latency.p50());
}

/// Runs one 4x4-torus port bridge under PMSB_CHECK=1 (set in this process
/// before the bridge is built) for 600 cycles of transit cells at half the
/// link rate plus local injections, applies `corrupt`, runs one more cycle
/// and exits 0.
template <class Corrupt>
void run_checked_bridge(Corrupt&& corrupt) {
  setenv("PMSB_CHECK", "1", 1);
  const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
  const fabric::CellCodec codec{SwitchConfig::for_ports(4).cell_format(), bits_for(16)};
  fabric::Channel rx{8};
  WireLink link;
  UniformDest others(16, SelfRule::kExcluded);
  traffic::Arrivals arrivals;
  arrivals.per_cycle = 0.02;
  arrivals.dests = &others;
  arrivals.rng = Rng(5);
  fabric::Ejector ejector;
  fabric::PortBridge bridge(&topo, &codec, 0, net::kWest, &rx, &link, &arrivals, &ejector);
  // Transit cells for node 2 entering node 0 from the west, every 2L cycles.
  const std::vector<Word> cell = codec.build(net::kEast, 2, 3, 1, 0);
  const auto len = static_cast<Cycle>(cell.size());
  auto step = [&](Cycle t) {
    const Cycle k = t % (2 * len);
    rx.write(t, k < len ? Flit{true, k == 0, cell[static_cast<std::size_t>(k)]} : Flit{});
    bridge.eval(t);
  };
  for (Cycle t = 0; t < 600; ++t) step(t);
  if (bridge.relayed() == 0 || arrivals.generated == 0) std::exit(1);  // Pool unexercised.
  corrupt(bridge);
  step(600);
  std::exit(0);
}

/// Under PMSB_CHECK=1 a bridge recounts its cell pool every eval: an honest
/// run passes, a lost buffer aborts.
TEST(Fabric, CheckedModeRecountsBridgeCellPool) {
  EXPECT_EXIT(run_checked_bridge([](fabric::PortBridge&) {}), testing::ExitedWithCode(0), "");
  EXPECT_DEATH(run_checked_bridge([](fabric::PortBridge& b) {
                 fabric::PortBridgePeer::leak_buffer(b);
               }),
               "free \\+ in use");
}

/// A transit cell finished during cycle f is queued behind no clock edge:
/// the bridge retransmits it from cycle f + 1 (its head is on the in-wire
/// during f + 2), and a second cell finished while the first is still
/// going out follows it with no gap.
TEST(Fabric, BridgeRetransmitsTransitCellTheCycleAfterItFinishes) {
  const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
  const fabric::CellCodec codec{SwitchConfig::for_ports(4).cell_format(), bits_for(16)};
  fabric::Channel rx{1};
  WireLink link;
  fabric::Ejector ejector;
  fabric::PortBridge bridge(&topo, &codec, 0, net::kWest, &rx, &link, nullptr, &ejector);
  // Two back-to-back transit cells for node 2 entering node 0 from the west.
  const std::vector<Word> cell = codec.build(net::kEast, 2, 3, 1, 0);
  const auto len = static_cast<Cycle>(cell.size());
  const Cycle first_done = len;  // Tail written at len - 1, read one cycle later.
  std::vector<Cycle> heads;
  std::vector<Cycle> words;
  for (Cycle t = 0; t < 4 * len; ++t) {
    const Cycle k = t % len;
    rx.write(t, t < 2 * len ? Flit{true, k == 0, cell[static_cast<std::size_t>(k)]} : Flit{});
    bridge.eval(t);
    const Flit& f = link.now(t);
    if (!f.valid) continue;
    words.push_back(t);
    if (f.sop) heads.push_back(t);
  }
  ASSERT_EQ(bridge.relayed(), 2u);
  EXPECT_EQ(heads, (std::vector<Cycle>{first_done + 2, first_done + len + 2}));
  ASSERT_EQ(words.size(), static_cast<std::size_t>(2 * len));
  EXPECT_EQ(words.back() - words.front() + 1, 2 * len);  // No gap between the cells.
}

TEST(Fabric, ShardTelemetryAccountsRoundsAndRelays) {
  fabric::FabricConfig cfg = small_torus(2);
  // Stepped rounds only: a task may skip while its nodes are idle (at the
  // start, say), even at load 0.6.
  cfg.idle_skip = 0;
  const auto fab = make_fabric(cfg);
  fab->run(1200);  // 400 rounds of D = 3.
  const std::vector<fabric::ShardTelemetry> tel = fab->shard_telemetry();
  ASSERT_EQ(tel.size(), 2u);
  unsigned nodes = 0;
  std::uint64_t relayed = 0;
  for (const fabric::ShardTelemetry& sh : tel) {
    EXPECT_EQ(sh.shard, static_cast<unsigned>(&sh - tel.data()));
    EXPECT_GT(sh.nodes, 0u);
    // A chunk spans at most one round (a neighbor lagging behind can cut
    // it shorter).
    EXPECT_GE(sh.rounds, 1200u / 3u);
    EXPECT_GT(sh.active_ns, 0u);
    nodes += sh.nodes;
    relayed += sh.cells_relayed;
  }
  EXPECT_EQ(nodes, fab->nodes());
  EXPECT_GT(relayed, 0u);  // Multi-hop routes relay through bridges.
  EXPECT_EQ(fab->rounds_skipped(), 0u);

  obs::PerfettoTrace tr;
  fab->telemetry_to_perfetto(tr);
  // Two worker tracks, each: thread_name metadata + active + scheduler_idle
  // slices; plus the stall counter track: metadata + one sample per task.
  EXPECT_EQ(tr.event_count(), 2u * 3u + 1u + 2u);
  const std::string doc = tr.json();
  EXPECT_NE(doc.find("fabric worker 0"), std::string::npos);
  EXPECT_NE(doc.find("fabric worker 1"), std::string::npos);
  EXPECT_NE(doc.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(doc.find("fabric shard stalls"), std::string::npos);
}

TEST(FabricFastModel, MixedFabricDeliversAndConserves) {
  const auto fab = make_fabric(mixed_model_torus(1));
  fab->run(2000);
  const fabric::FabricStats st = fab->stats();
  EXPECT_GT(st.delivered, 0u);
  EXPECT_EQ(st.payload_errors, 0u);
  EXPECT_EQ(st.injected, st.delivered + st.dropped() + st.backlog + st.in_network);
  EXPECT_TRUE(fab->node_is_fast(1));
  EXPECT_FALSE(fab->node_is_fast(0));
  EXPECT_GT(fab->node_fast_switch(1).stats().accepted, 0u);
  EXPECT_GT(fab->node_switch(0).stats().accepted, 0u);
}

TEST(FabricFastModel, MixedFabricDeterministicAcrossThreadCounts) {
  const auto f1 = make_fabric(mixed_model_torus(1));
  const auto f4 = make_fabric(mixed_model_torus(4));
  f1->run(2000);
  f4->run(2000);
  expect_same_stats(f1->stats(), f4->stats());
  for (unsigned i = 0; i < f1->nodes(); ++i) {
    if (f1->node_is_fast(i)) {
      EXPECT_EQ(f1->node_fast_switch(i).stats().accepted,
                f4->node_fast_switch(i).stats().accepted) << i;
    } else {
      EXPECT_EQ(f1->node_switch(i).stats().accepted, f4->node_switch(i).stats().accepted)
          << i;
    }
  }
}

// An all-fast low-load fabric still skips correctly (the fast model's
// quiescence hooks feed the same round planner).
TEST(FabricFastModel, AllFastIdleSkipEquivalence) {
  fabric::FabricConfig off = low_load_torus(/*idle_skip=*/0, 1);
  fabric::FabricConfig on = low_load_torus(/*idle_skip=*/1, 1);
  off.fast_node = [](unsigned) { return true; };
  on.fast_node = [](unsigned) { return true; };
  const auto stepped = make_fabric(off);
  const auto skipped = make_fabric(on);
  stepped->run(20000);
  skipped->run(20000);
  EXPECT_GT(stepped->stats().delivered, 0u);
  expect_same_stats(stepped->stats(), skipped->stats());
}

// ---------------------------------------------------------------------------
// Partitions: the same determinism contract across the granularity of the
// task partition. One task (threads = 1) steps every node in lockstep, the
// schedule of a round barrier; one node per task (threads = node count)
// puts every channel between two tasks, the schedule of per-node dataflow;
// the default (one task per PMSB_THREADS worker) sits between. All of them
// must agree bit-exactly, under idle skipping, with mixed node models, and
// across run() splits (which also apply the rebalancer's repartitions).

fabric::FabricConfig with_threads(fabric::FabricConfig cfg, unsigned threads) {
  cfg.threads = threads;
  return cfg;
}

/// The threads values of the partitions that are compared against the
/// one-task reference: the default and one node per task.
std::vector<unsigned> finer_partitions(const fabric::FabricConfig& cfg) {
  return {0u, cfg.topo.nodes()};
}

TEST(FabricDataflow, MatchesOneTaskAcrossPartitions) {
  fabric::FabricConfig base = small_torus(1);
  base.flight_recorder = true;
  base.flight_warmup = 200;
  const auto ref = make_fabric(base);
  ref->run(2000);
  const fabric::FabricStats want = ref->stats();
  ASSERT_GT(want.delivered, 0u);
  const obs::FlightRecorder want_flight = ref->merged_flight();

  for (unsigned threads : finer_partitions(base)) {
    const auto fab = make_fabric(with_threads(base, threads));
    if (threads != 0) {
      EXPECT_EQ(fab->scheduler_stats().tasks, threads);
    }
    fab->run(2000);
    const fabric::FabricStats got = fab->stats();
    expect_same_stats(want, got);
    // Merged HDR latency distribution, down in the tail.
    EXPECT_EQ(want.latency.samples(), got.latency.samples()) << threads;
    EXPECT_EQ(want.latency.p50(), got.latency.p50()) << threads;
    EXPECT_EQ(want.latency.p999(), got.latency.p999()) << threads;
    // Flight-recorder per-stage sums survive the partition change.
    const obs::FlightRecorder got_flight = fab->merged_flight();
    EXPECT_EQ(want_flight.completed(), got_flight.completed()) << threads;
    for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
      const auto st = static_cast<obs::FlightStage>(s);
      EXPECT_EQ(want_flight.stage(st).samples(), got_flight.stage(st).samples())
          << threads << " stage " << s;
      EXPECT_EQ(want_flight.stage(st).sum(), got_flight.stage(st).sum())
          << threads << " stage " << s;
    }
  }
}

// Cell fabrics run every destination kind through the arrival process the
// wormhole fabrics use. Each kind keeps the fabric contract: exact
// conservation, verified payloads, and the same results at 1 and 4 workers
// and one node per task, with idle skipping on and off.
TEST(FabricDataflow, EveryDestinationKindConservesAcrossPartitions) {
  for (const char* traffic : {"hotsenders:0.25,0.95", "hotspot:0.3,0.5", "permutation:0.5"}) {
    SCOPED_TRACE(traffic);
    fabric::FabricConfig base = small_torus(1);
    base.traffic = traffic;
    base.idle_skip = 0;
    const auto ref = make_fabric(base);
    ref->run(2000);
    const fabric::FabricStats want = ref->stats();
    ASSERT_GT(want.delivered, 0u);
    EXPECT_EQ(want.payload_errors, 0u);
    EXPECT_EQ(want.injected, want.delivered + want.dropped() + want.backlog + want.in_network);
    for (unsigned threads : {1u, 4u, base.topo.nodes()}) {
      for (int idle_skip : {0, 1}) {
        if (threads == 1 && idle_skip == 0) continue;  // The reference.
        fabric::FabricConfig cfg = with_threads(base, threads);
        cfg.idle_skip = idle_skip;
        const auto fab = make_fabric(cfg);
        fab->run(2000);
        SCOPED_TRACE("threads " + std::to_string(threads) + " idle_skip " +
                     std::to_string(idle_skip));
        expect_same_stats(want, fab->stats());
      }
    }
  }
}

fabric::FabricConfig worm_banyan(unsigned threads, unsigned lanes,
                                 const char* traffic = "uniform:0.6") {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 16, 1};
  cfg.link_pipe_stages = 1;
  cfg.seed = 11;
  cfg.threads = threads;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = traffic;
  return cfg;
}

void expect_same_worm_stats(const fabric::FabricStats& a, const fabric::FabricStats& b) {
  expect_same_stats(a, b);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
}

// Each round boundary's gauge sample is assembled from per-task
// contributions while other tasks run on. The oracle is a one-task fabric
// advanced one round per run() call, with stats() read at each boundary:
// a 4-worker run must give the same six series, on both transports.
TEST(FabricDataflow, MetricsSamplingMatchesOneTask) {
  const fabric::FabricConfig inputs[] = {
      small_torus(1),
      worm_banyan(1, 4, "hotsenders:0.25,0.95"),
      [] {
        fabric::FabricConfig mesh = worm_banyan(1, 2);
        mesh.topo = net::Topology{net::TopologyKind::kMesh2D, 4, 4};
        return mesh;
      }(),
  };
  constexpr Cycle kCycles = 1200;
  const char* const gauges[] = {"fabric.injected", "fabric.delivered", "fabric.dropped",
                                "fabric.backlog",  "fabric.in_network", "fabric.latency.mean"};
  for (const fabric::FabricConfig& cfg : inputs) {
    const std::string what = cfg.topo.describe();
    obs::GaugeStats want[6];
    const auto ref = make_fabric(with_threads(cfg, 1));
    const Cycle round = cfg.link_pipe_stages;
    while (ref->now() < kCycles) {
      ref->run(std::min(round, kCycles - ref->now()));
      const fabric::FabricStats st = ref->stats();
      const double values[6] = {static_cast<double>(st.injected),
                                static_cast<double>(st.delivered),
                                static_cast<double>(st.dropped()),
                                static_cast<double>(st.backlog),
                                static_cast<double>(st.in_network),
                                st.mean_latency};
      for (int g = 0; g < 6; ++g) {
        obs::GaugeStats& w = want[g];
        w.min = w.samples == 0 ? values[g] : std::min(w.min, values[g]);
        w.max = w.samples == 0 ? values[g] : std::max(w.max, values[g]);
        w.last = values[g];
        w.sum += values[g];
        ++w.samples;
      }
    }
    ASSERT_GT(ref->stats().delivered, 0u) << what;

    obs::MetricsRegistry m;
    const auto fab = make_fabric(with_threads(cfg, 4));
    fab->register_metrics(&m);
    fab->run(kCycles);
    for (int g = 0; g < 6; ++g) {
      const obs::GaugeStats* got = m.find_gauge(gauges[g]);
      ASSERT_NE(got, nullptr) << what << " " << gauges[g];
      EXPECT_EQ(got->samples, want[g].samples) << what << " " << gauges[g];
      EXPECT_EQ(got->last, want[g].last) << what << " " << gauges[g];
      EXPECT_EQ(got->min, want[g].min) << what << " " << gauges[g];
      EXPECT_EQ(got->max, want[g].max) << what << " " << gauges[g];
      EXPECT_EQ(got->sum, want[g].sum) << what << " " << gauges[g];
    }
  }
}

// The largest undirected hop distance over the edge list -- the task-graph
// diameter of the one-node-per-task partition, the bound that sizes the
// sampling-frame ring: the topology diameter on the direct kinds, and at
// most twice the stage distance on the multistage ones (two routers of one
// stage meet through a common later stage).
TEST(FabricDataflow, LinkDiameterComesFromTheEdgeList) {
  using net::Topology;
  using net::TopologyKind;
  auto link_diameter = [](const Topology& topo) {
    fabric::FabricConfig cfg = small_torus(1);
    cfg.topo = topo;
    return make_fabric(cfg)->link_diameter();
  };
  for (const Topology& topo :
       {Topology{TopologyKind::kTorus2D, 4, 4}, Topology{TopologyKind::kTorus2D, 8, 8},
        Topology{TopologyKind::kRing, 8, 1}, Topology{TopologyKind::kMesh2D, 8, 8}})
    EXPECT_EQ(link_diameter(topo), topo.diameter()) << topo.describe();
  for (const Topology& topo :
       {Topology{TopologyKind::kBanyan, 16, 1}, Topology{TopologyKind::kOmega, 16, 1},
        Topology{TopologyKind::kClos, 16, 1, 4}}) {
    EXPECT_GE(link_diameter(topo), topo.stages() - 1) << topo.describe();
    EXPECT_LE(link_diameter(topo), 2 * (topo.stages() - 1)) << topo.describe();
  }
}

// Repeated run() calls continue the simulation exactly; the second and third
// runs start from a rebalanced partition (plan from the previous run),
// which must be invisible in the results.
TEST(FabricDataflow, SplitRunMatchesSingleRunWithRebalance) {
  const fabric::FabricConfig cfg = small_torus(4);
  const auto whole = make_fabric(cfg);
  const auto split = make_fabric(cfg);
  whole->run(1400);
  split->run(500);
  split->run(137);  // Deliberately not a multiple of the lookahead.
  split->run(763);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_stats(whole->stats(), split->stats());
}

// A quiescent task jumps to its earliest wake, bounded only by its neighbor
// tasks. That changes nothing against a stepped run, at any partition, and
// across a mid-run split.
TEST(FabricDataflow, IdleSkipEquivalentAcrossPartitionsAndSplits) {
  const auto stepped = make_fabric(low_load_torus(/*idle_skip=*/0, 1));
  stepped->run(20000);
  const fabric::FabricStats want = stepped->stats();
  EXPECT_GT(want.delivered, 0u);
  const fabric::FabricConfig skipping = low_load_torus(/*idle_skip=*/1, 1);
  std::vector<unsigned> partitions = finer_partitions(skipping);
  partitions.insert(partitions.begin(), 1u);
  for (unsigned threads : partitions) {
    const auto whole = make_fabric(with_threads(skipping, threads));
    const auto split = make_fabric(with_threads(skipping, threads));
    whole->run(20000);
    split->run(8100);  // Off the round grid on purpose.
    split->run(11900);
    expect_same_stats(want, whole->stats());
    expect_same_stats(want, split->stats());
    EXPECT_GT(whole->rounds_skipped(), 0u) << threads;  // Skipping actually engaged.
  }
}

TEST(FabricDataflow, MixedModelMatchesOneTask) {
  const auto ref = make_fabric(mixed_model_torus(1));
  ref->run(2000);
  for (unsigned threads : finer_partitions(mixed_model_torus(1))) {
    const auto fab = make_fabric(mixed_model_torus(threads));
    fab->run(2000);
    expect_same_stats(ref->stats(), fab->stats());
    for (unsigned i = 0; i < ref->nodes(); ++i) {
      if (ref->node_is_fast(i)) {
        EXPECT_EQ(ref->node_fast_switch(i).stats().accepted,
                  fab->node_fast_switch(i).stats().accepted) << threads << " " << i;
      } else {
        EXPECT_EQ(ref->node_switch(i).stats().accepted, fab->node_switch(i).stats().accepted)
            << threads << " " << i;
      }
    }
  }
}

// More workers than cores on a wormhole fabric, whose credit rings make
// every pair of neighboring tasks bound each other both ways.
TEST(FabricDataflow, DeterministicWhenOversubscribed) {
  const fabric::FabricConfig cfg = worm_banyan(1, 4, "hotsenders:0.25,0.95");
  const auto f1 = make_fabric(cfg);
  const auto fmany =
      make_fabric(with_threads(cfg, std::max(4u, std::thread::hardware_concurrency() + 2)));
  EXPECT_GE(fmany->threads(), 4u);
  f1->run(1200);
  fmany->run(1200);
  expect_same_worm_stats(f1->stats(), fmany->stats());
}

TEST(FabricDataflow, RebalanceNeverChangesResults) {
  const auto ref = make_fabric(small_torus(1));
  ref->run(2400);
  for (unsigned threads : finer_partitions(small_torus(1))) {
    const auto fab = make_fabric(small_torus(threads));
    // Several runs so rebalance plans actually get applied in between.
    for (int r = 0; r < 4; ++r) fab->run(600);
    expect_same_stats(ref->stats(), fab->stats());
  }
}

TEST(FabricDataflow, SchedulerStatsAndTelemetryShape) {
  const auto fab = make_fabric(small_torus(2));
  fab->run(1200);
  const fabric::FabricSchedulerStats sched = fab->scheduler_stats();
  EXPECT_EQ(sched.workers, 2u);
  EXPECT_GE(sched.tasks, sched.workers);
  ASSERT_EQ(sched.per_worker.size(), 2u);
  std::uint64_t active = 0;
  for (const auto& w : sched.per_worker) active += w.active_ns;
  EXPECT_GT(active, 0u);

  const std::vector<fabric::ShardTelemetry> tel = fab->shard_telemetry();
  ASSERT_EQ(tel.size(), sched.tasks);
  unsigned nodes = 0;
  std::uint64_t relayed = 0;
  std::uint64_t chunks = 0;
  for (const fabric::ShardTelemetry& t : tel) {
    nodes += t.nodes;
    relayed += t.cells_relayed;
    chunks += t.rounds;
  }
  EXPECT_EQ(nodes, fab->nodes());
  EXPECT_GT(relayed, 0u);
  EXPECT_GT(chunks, 0u);

  obs::PerfettoTrace tr;
  fab->telemetry_to_perfetto(tr);
  const std::string doc = tr.json();
  EXPECT_NE(doc.find("fabric worker 0"), std::string::npos);
  EXPECT_NE(doc.find("\"scheduler_idle\""), std::string::npos);
  EXPECT_NE(doc.find("fabric shard stalls"), std::string::npos);
  EXPECT_NE(doc.find("blocked_on_empty"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wormhole fabrics: the same determinism contract at flit granularity --
// thread counts x partitions x lane counts, run splits, and idle skipping.
// The fabric's two former engines are the extreme partitions: one task
// (lockstep rounds) and one node per task (per-node dataflow).

TEST(WormDeterminism, PartitionsTimesLanes) {
  for (const unsigned lanes : {1u, 4u}) {
    const auto ref = make_fabric(worm_banyan(1, lanes));
    ref->run(3000);
    const fabric::FabricStats want = ref->stats();
    ASSERT_GT(want.delivered, 0u);
    ASSERT_EQ(want.payload_errors, 0u);
    std::vector<unsigned> threads = finer_partitions(worm_banyan(1, lanes));
    threads.push_back(2);
    for (const unsigned t : threads) {
      const auto fab = make_fabric(worm_banyan(t, lanes));
      fab->run(3000);
      expect_same_worm_stats(want, fab->stats());
    }
  }
}

TEST(WormDeterminism, SplitRunMatchesSingleRun) {
  const auto whole = make_fabric(worm_banyan(4, 2));
  const auto split = make_fabric(worm_banyan(4, 2));
  whole->run(2400);
  split->run(900);
  split->run(137);  // Deliberately off any lookahead grid.
  split->run(1363);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_worm_stats(whole->stats(), split->stats());
}

/// Idle skipping must be invisible at flit granularity too: a sparse worm
/// fabric (low load, long idle stretches) run with skipping forced on
/// reproduces the stepped run bit for bit, under both former engines'
/// partitions (one task, one node per task) and the default.
TEST(WormDeterminism, IdleSkipEquivalentAcrossPartitions) {
  fabric::FabricConfig stepped_cfg = worm_banyan(1, 2, "uniform:0.002");
  stepped_cfg.idle_skip = 0;
  const auto stepped = make_fabric(stepped_cfg);
  stepped->run(30000);
  EXPECT_GT(stepped->stats().delivered, 0u);
  fabric::FabricConfig skipping_cfg = worm_banyan(1, 2, "uniform:0.002");
  skipping_cfg.idle_skip = 1;
  std::vector<unsigned> partitions = finer_partitions(skipping_cfg);
  partitions.insert(partitions.begin(), 1u);
  for (const unsigned threads : partitions) {
    const auto skipping = make_fabric(with_threads(skipping_cfg, threads));
    skipping->run(30000);
    expect_same_worm_stats(stepped->stats(), skipping->stats());
    EXPECT_GT(skipping->rounds_skipped(), 0u) << threads;  // Skipping actually engaged.
  }
}

/// The hotsenders pattern keeps background sources off the hot egress:
/// with dedicated aggressors saturating endpoint 0, splitting each buffer
/// into more lanes must raise carried throughput (the virtual-channel
/// payoff the MW bench gates on).
TEST(WormDeterminism, MoreLanesCarryMoreUnderTreeSaturation) {
  std::uint64_t flits_by_lanes[2] = {};
  const unsigned lane_opts[2] = {1u, 4u};
  for (int i = 0; i < 2; ++i) {
    const auto fab = make_fabric(worm_banyan(1, lane_opts[i], "hotsenders:0.25,0.95"));
    fab->run(6000);
    flits_by_lanes[i] = fab->stats().flits_delivered;
  }
  EXPECT_GT(flits_by_lanes[1], flits_by_lanes[0]);
}

}  // namespace
}  // namespace pmsb
