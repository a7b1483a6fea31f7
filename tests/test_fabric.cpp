// Tests of the sharded fabric engine (src/fabric/) and of the
// multi-subscriber event API it rides on (core/event_hub.hpp).
//
// The load-bearing property is the determinism contract: a fabric run must
// produce bit-identical delivered-cell digests, drop counts, latencies and
// metric samples at ANY thread count. The conservative round scheme
// (lookahead = link_pipe_stages) is what makes that hold; these tests pin
// it with 1-vs-2-vs-4-thread comparisons on real topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "sim/barrier.hpp"

namespace pmsb {
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

  // Cell fabrics take uniform traffic only, with a finite embedded load.
  for (const char* traffic : {"hotspot:0.5", "uniform:nan", "pareto:nan,1.4,16"}) {
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

// Metric samples (taken at round barriers) follow the same contract: same
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

// ---------------------------------------------------------------------------
// SpinBarrier under oversubscription (regression: the pure spin-then-yield
// waiter livelocked CI runners when parties > hardware threads; the sleep
// tier in sim/barrier.hpp is what this pins).

TEST(SpinBarrierTest, SurvivesMoreThreadsThanCores) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned parties = cores * 2 + 2;  // Guaranteed oversubscribed.
  constexpr int kEpisodes = 200;
  std::atomic<int> completions{0};
  SpinBarrier barrier(parties, [&completions] { ++completions; });

  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (unsigned p = 0; p < parties; ++p) {
    threads.emplace_back([&barrier] {
      for (int e = 0; e < kEpisodes; ++e) barrier.arrive_and_wait();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kEpisodes);  // Exactly one completion/episode.
}

// Regression for the wake-up path: a straggler forces every other party all
// the way into the condvar park tier, and the completion must notify them
// out of it (the old sleep-polling waiter burned 50us per wake; the condvar
// waiter is also the only reason sleepers_ accounting exists).
TEST(SpinBarrierTest, ParkedWaitersWakeOnCompletion) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned parties = cores * 2 + 2;
  constexpr int kEpisodes = 50;
  std::atomic<int> completions{0};
  SpinBarrier barrier(parties, [&completions] { ++completions; });

  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (unsigned p = 0; p < parties; ++p) {
    threads.emplace_back([&barrier, p] {
      for (int e = 0; e < kEpisodes; ++e) {
        // Party 0 straggles past everyone's spin budget, so the rest park.
        if (p == 0 && e % 8 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kEpisodes);
  EXPECT_EQ(barrier.sleepers(), 0u);  // Every parked waiter was released.
}

// The fabric itself must stay deterministic when its shard count exceeds the
// machine's core count (same livelock regression, end to end).
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

TEST(Fabric, ShardTelemetryAccountsRoundsAndRelays) {
  fabric::FabricConfig cfg = small_torus(2);
  // Round/relay accounting below is barrier-engine-specific (the dataflow
  // engine reports per-task chunks instead of lockstep rounds).
  cfg.engine = fabric::FabricEngine::kBarrier;
  const auto fab = make_fabric(cfg);
  fab->run(1200);  // 400 rounds of D = 3.
  const std::vector<fabric::ShardTelemetry> tel = fab->shard_telemetry();
  ASSERT_EQ(tel.size(), 2u);
  unsigned nodes = 0;
  std::uint64_t relayed = 0;
  for (const fabric::ShardTelemetry& sh : tel) {
    EXPECT_EQ(sh.shard, static_cast<unsigned>(&sh - tel.data()));
    EXPECT_GT(sh.nodes, 0u);
    // No idle skips at load 0.6: every shard stepped every round.
    EXPECT_EQ(sh.rounds, 1200u / 3u);
    EXPECT_GT(sh.active_ns, 0u);
    nodes += sh.nodes;
    relayed += sh.cells_relayed;
  }
  EXPECT_EQ(nodes, fab->nodes());
  EXPECT_GT(relayed, 0u);  // Multi-hop routes relay through bridges.
  EXPECT_EQ(fab->rounds_skipped(), 0u);

  obs::PerfettoTrace tr;
  fab->telemetry_to_perfetto(tr);
  // Two worker tracks, each: thread_name metadata + active + barrier_wait
  // slices; plus the stall counter track: metadata + one sample per shard.
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
// Dataflow engine: the same determinism contract, now across ENGINES too --
// kDataflow must reproduce kBarrier's results bit-exactly at any thread
// count, under idle skipping, with mixed node models, and across run()
// splits (which also exercises mid-sequence rebalancing).

fabric::FabricConfig with_engine(fabric::FabricConfig cfg, fabric::FabricEngine e,
                                 unsigned threads) {
  cfg.engine = e;
  cfg.threads = threads;
  return cfg;
}

TEST(FabricDataflow, MatchesBarrierAcrossThreadCounts) {
  fabric::FabricConfig base = small_torus(1);
  base.flight_recorder = true;
  base.flight_warmup = 200;
  const auto ref = make_fabric(with_engine(base, fabric::FabricEngine::kBarrier, 1));
  ref->run(2000);
  const fabric::FabricStats want = ref->stats();
  ASSERT_GT(want.delivered, 0u);
  const obs::FlightRecorder want_flight = ref->merged_flight();

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto df = make_fabric(with_engine(base, fabric::FabricEngine::kDataflow, threads));
    EXPECT_EQ(df->engine(), fabric::FabricEngine::kDataflow);
    df->run(2000);
    const fabric::FabricStats got = df->stats();
    expect_same_stats(want, got);
    // Merged HDR latency distribution, down in the tail.
    EXPECT_EQ(want.latency.samples(), got.latency.samples()) << threads;
    EXPECT_EQ(want.latency.p50(), got.latency.p50()) << threads;
    EXPECT_EQ(want.latency.p999(), got.latency.p999()) << threads;
    // Flight-recorder per-stage sums survive the engine change.
    const obs::FlightRecorder got_flight = df->merged_flight();
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

fabric::FabricConfig worm_banyan(fabric::FabricEngine engine, unsigned threads,
                                 unsigned lanes, const char* traffic = "uniform:0.6") {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 16, 1};
  cfg.link_pipe_stages = 1;
  cfg.seed = 11;
  cfg.engine = engine;
  cfg.threads = threads;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = traffic;
  return cfg;
}

// The dataflow engine assembles each round's gauge sample from per-node
// contributions; the barrier engine reads live state with every worker
// parked. Both transports must give the same six series.
TEST(FabricDataflow, MetricsSamplingMatchesBarrier) {
  const fabric::FabricConfig inputs[] = {
      small_torus(1),
      worm_banyan(fabric::FabricEngine::kBarrier, 1, 4, "hotsenders:0.25,0.95"),
      [] {
        fabric::FabricConfig mesh = worm_banyan(fabric::FabricEngine::kBarrier, 1, 2);
        mesh.topo = net::Topology{net::TopologyKind::kMesh2D, 4, 4};
        return mesh;
      }(),
  };
  for (const fabric::FabricConfig& cfg : inputs) {
    const std::string what = cfg.topo.describe();
    obs::MetricsRegistry mb, md;
    const auto fb = make_fabric(with_engine(cfg, fabric::FabricEngine::kBarrier, 1));
    const auto fd = make_fabric(with_engine(cfg, fabric::FabricEngine::kDataflow, 4));
    fb->register_metrics(&mb);
    fd->register_metrics(&md);
    fb->run(1200);
    fd->run(1200);
    EXPECT_GT(fb->stats().delivered, 0u) << what;
    for (const char* g : {"fabric.injected", "fabric.delivered", "fabric.dropped",
                          "fabric.backlog", "fabric.in_network", "fabric.latency.mean"}) {
      const obs::GaugeStats* a = mb.find_gauge(g);
      const obs::GaugeStats* b = md.find_gauge(g);
      ASSERT_NE(a, nullptr) << what << " " << g;
      ASSERT_NE(b, nullptr) << what << " " << g;
      EXPECT_EQ(a->samples, b->samples) << what << " " << g;
      EXPECT_EQ(a->last, b->last) << what << " " << g;
      EXPECT_EQ(a->min, b->min) << what << " " << g;
      EXPECT_EQ(a->max, b->max) << what << " " << g;
      EXPECT_EQ(a->sum, b->sum) << what << " " << g;
    }
  }
}

// The dataflow engine sizes its sampling-frame ring from the largest
// undirected hop distance over the edge list: the topology diameter on the
// direct kinds, and at most twice the stage distance on the multistage ones
// (two routers of one stage meet through a common later stage).
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
  const fabric::FabricConfig cfg =
      with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 4);
  const auto whole = make_fabric(cfg);
  const auto split = make_fabric(cfg);
  whole->run(1400);
  split->run(500);
  split->run(137);  // Deliberately not a multiple of the lookahead.
  split->run(763);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_stats(whole->stats(), split->stats());
}

// Per-node idle skipping (the dataflow engine's chunk-granular variant)
// changes nothing, including against the barrier planner's round-granular
// skipping, and across a mid-run split.
TEST(FabricDataflow, IdleSkipEquivalentAcrossEnginesAndSplits) {
  const auto barrier_skip = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 1), fabric::FabricEngine::kBarrier, 1));
  const auto df_step = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/0, 2), fabric::FabricEngine::kDataflow, 2));
  const auto df_skip = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 2), fabric::FabricEngine::kDataflow, 2));
  const auto df_skip_split = make_fabric(
      with_engine(low_load_torus(/*idle_skip=*/1, 2), fabric::FabricEngine::kDataflow, 2));
  barrier_skip->run(20000);
  df_step->run(20000);
  df_skip->run(20000);
  df_skip_split->run(8100);  // Off the round grid on purpose.
  df_skip_split->run(11900);
  EXPECT_GT(df_step->stats().delivered, 0u);
  expect_same_stats(barrier_skip->stats(), df_step->stats());
  expect_same_stats(df_step->stats(), df_skip->stats());
  expect_same_stats(df_skip->stats(), df_skip_split->stats());
  EXPECT_GT(df_skip->rounds_skipped(), 0u);  // Skipping actually engaged.
}

TEST(FabricDataflow, MixedModelMatchesBarrier) {
  const auto fb = make_fabric(with_engine(mixed_model_torus(1), fabric::FabricEngine::kBarrier, 1));
  const auto fd = make_fabric(with_engine(mixed_model_torus(1), fabric::FabricEngine::kDataflow, 4));
  fb->run(2000);
  fd->run(2000);
  expect_same_stats(fb->stats(), fd->stats());
  for (unsigned i = 0; i < fb->nodes(); ++i) {
    if (fb->node_is_fast(i)) {
      EXPECT_EQ(fb->node_fast_switch(i).stats().accepted,
                fd->node_fast_switch(i).stats().accepted) << i;
    } else {
      EXPECT_EQ(fb->node_switch(i).stats().accepted, fd->node_switch(i).stats().accepted)
          << i;
    }
  }
}

TEST(FabricDataflow, DeterministicWhenOversubscribed) {
  fabric::FabricConfig cfg = with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 1);
  const auto f1 = make_fabric(cfg);
  cfg.threads = std::max(4u, std::thread::hardware_concurrency() + 2);
  const auto fmany = make_fabric(cfg);
  EXPECT_GE(fmany->threads(), 4u);
  f1->run(1200);
  fmany->run(1200);
  expect_same_stats(f1->stats(), fmany->stats());
}

TEST(FabricDataflow, RebalanceNeverChangesResults) {
  const auto fdf = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 2));
  const auto fb = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kBarrier, 2));
  // Several runs so rebalance plans actually get applied in between.
  for (int r = 0; r < 4; ++r) {
    fdf->run(600);
    fb->run(600);
  }
  expect_same_stats(fb->stats(), fdf->stats());
}

TEST(FabricDataflow, SchedulerStatsAndTelemetryShape) {
  const auto fab = make_fabric(with_engine(small_torus(1), fabric::FabricEngine::kDataflow, 2));
  fab->run(1200);
  const fabric::FabricSchedulerStats sched = fab->scheduler_stats();
  EXPECT_STREQ(sched.engine, "dataflow");
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
    EXPECT_EQ(t.barrier_wait_ns, 0u);  // kDataflow never parks at a barrier.
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

// The barrier engine's scheduler block is shape-compatible (degenerate
// pinned tasks), so BENCH JSON consumers need no engine-specific handling.
TEST(FabricDataflow, BarrierSchedulerStatsShape) {
  const auto fab = make_fabric(with_engine(small_torus(2), fabric::FabricEngine::kBarrier, 2));
  fab->run(600);
  const fabric::FabricSchedulerStats sched = fab->scheduler_stats();
  EXPECT_STREQ(sched.engine, "barrier");
  EXPECT_EQ(sched.workers, 2u);
  EXPECT_EQ(sched.tasks, 2u);
  EXPECT_EQ(sched.steals, 0u);
  ASSERT_EQ(sched.per_worker.size(), 2u);
  EXPECT_GT(sched.per_worker[0].active_ns + sched.per_worker[1].active_ns, 0u);
}

// ---------------------------------------------------------------------------
// Wormhole fabrics: the same determinism contract at flit granularity --
// thread counts x engines x lane counts, run splits, and idle skipping.

void expect_same_worm_stats(const fabric::FabricStats& a, const fabric::FabricStats& b) {
  expect_same_stats(a, b);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
}

TEST(WormDeterminism, ThreadCountsTimesEnginesTimesLanes) {
  for (const unsigned lanes : {1u, 4u}) {
    const auto ref = make_fabric(worm_banyan(fabric::FabricEngine::kBarrier, 1, lanes));
    ref->run(3000);
    const fabric::FabricStats want = ref->stats();
    ASSERT_GT(want.delivered, 0u);
    ASSERT_EQ(want.payload_errors, 0u);
    for (const auto engine :
         {fabric::FabricEngine::kBarrier, fabric::FabricEngine::kDataflow}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        const auto fab = make_fabric(worm_banyan(engine, threads, lanes));
        fab->run(3000);
        expect_same_worm_stats(want, fab->stats());
      }
    }
  }
}

TEST(WormDeterminism, SplitRunMatchesSingleRun) {
  const auto whole = make_fabric(worm_banyan(fabric::FabricEngine::kDataflow, 4, 2));
  const auto split = make_fabric(worm_banyan(fabric::FabricEngine::kDataflow, 4, 2));
  whole->run(2400);
  split->run(900);
  split->run(137);  // Deliberately off any lookahead grid.
  split->run(1363);
  EXPECT_EQ(whole->now(), split->now());
  expect_same_worm_stats(whole->stats(), split->stats());
}

/// Idle skipping must be invisible at flit granularity too: a sparse worm
/// fabric (low load, long idle stretches) run with skipping forced on
/// reproduces the stepped run bit for bit, on both engines.
TEST(WormDeterminism, IdleSkipEquivalentOnBothEngines) {
  for (const auto engine :
       {fabric::FabricEngine::kBarrier, fabric::FabricEngine::kDataflow}) {
    fabric::FabricConfig stepped_cfg = worm_banyan(engine, 2, 2, "uniform:0.002");
    stepped_cfg.idle_skip = 0;
    fabric::FabricConfig skipping_cfg = worm_banyan(engine, 2, 2, "uniform:0.002");
    skipping_cfg.idle_skip = 1;
    const auto stepped = make_fabric(stepped_cfg);
    const auto skipping = make_fabric(skipping_cfg);
    stepped->run(30000);
    skipping->run(30000);
    EXPECT_GT(stepped->stats().delivered, 0u);
    expect_same_worm_stats(stepped->stats(), skipping->stats());
    EXPECT_GT(skipping->rounds_skipped(), 0u);  // Skipping actually engaged.
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
    const auto fab = make_fabric(worm_banyan(fabric::FabricEngine::kBarrier, 1,
                                             lane_opts[i], "hotsenders:0.25,0.95"));
    fab->run(6000);
    flits_by_lanes[i] = fab->stats().flits_delivered;
  }
  EXPECT_GT(flits_by_lanes[1], flits_by_lanes[0]);
}

}  // namespace
}  // namespace pmsb
