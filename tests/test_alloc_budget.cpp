// Heap-allocation budgets of the steady state. This binary replaces global
// operator new in its own process and counts every call, then runs each
// system past warm-up and counts the allocations of two equal windows.
//
// The budgets are the measured counts of the current code, per 1000
// simulated cycles; they only ratchet down. A change that adds an
// allocation per cell or per message fails here instead of showing up in
// a profile later. The banyan runs past saturation, so its backlog grows
// without end: its second window must allocate no more than its first.
//
// Counts are of the unchecked simulator: PMSB_CHECK is pinned to 0 in this
// process, since the invariant checkers record per-event state by design.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/config.hpp"
#include "core/testbench.hpp"
#include "fabric/fabric.hpp"
#include "net/topology.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pmsb {
namespace {

constexpr Cycle kWarm = 12000;
constexpr Cycle kWindow = 12000;

struct Windows {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
};

/// Run `run(cycles)` through warm-up and then two kWindow-cycle windows,
/// counting the allocations of each window.
template <typename Run>
Windows count_windows(Run run) {
  run(kWarm);
  Windows w;
  std::uint64_t at = g_allocs.load();
  run(kWindow);
  w.first = g_allocs.load() - at;
  at = g_allocs.load();
  run(kWindow);
  w.second = g_allocs.load() - at;
  return w;
}

/// A budget of `per_1000_cycles` allocations, as a count for one window.
std::uint64_t budget(double per_1000_cycles) {
  return static_cast<std::uint64_t>(per_1000_cycles * kWindow / 1000);
}

class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override { setenv("PMSB_CHECK", "0", 1); }
};

// The 32-endpoint banyan of bench/perf's banyan32_hotsenders: past
// saturation, so the hot senders' pending messages pile up for the whole
// run. Their count is not their memory: the backlog is a counter and a
// replay cursor.
TEST_F(AllocBudget, BanyanPastSaturationDoesNotGrow) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 32, 1};
  cfg.link_pipe_stages = 1;
  cfg.lanes = 4;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = "hotsenders:0.25,0.95";
  cfg.seed = 1;
  cfg.threads = 1;
  auto fab = fabric::Fabric::build(cfg.topo, cfg);
  const Windows w = count_windows([&](Cycle n) { fab->run(n); });
  const fabric::FabricStats st = fab->stats();
  ASSERT_GT(st.backlog, 10000u) << "the run must be past saturation to test the backlog";
  EXPECT_LE(w.second, w.first);
  // Measured 5 per window (0.42 per 1000 cycles); a queued backlog took 183.
  EXPECT_LE(w.first, budget(0.5));
}

// The 8x8 torus of bench/perf's torus8_uniform, below saturation.
TEST_F(AllocBudget, TorusUniform) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 8, 8};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 8;
  cfg.load = 0.45;
  cfg.seed = 1;
  cfg.threads = 1;
  auto fab = fabric::Fabric::build(cfg.topo, cfg);
  const Windows w = count_windows([&](Cycle n) { fab->run(n); });
  // Measured 698 and 703 per 1000 cycles: OutQueues' deque blocks.
  EXPECT_LE(w.first, budget(705));
  EXPECT_LE(w.second, budget(705));
}

// One saturated 16-port PipelinedSwitch under the reference Scoreboard, as
// bench/perf's switch16_sat.
TEST_F(AllocBudget, SaturatedSwitchWithScoreboard) {
  const SwitchConfig cfg = SwitchConfig::for_ports(16);
  TrafficSpec t;
  t.arrivals = ArrivalKind::kSaturated;
  t.load = 1.0;
  t.seed = 1;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), t, /*with_scoreboard=*/true);
  const Windows w = count_windows([&](Cycle n) { tb.run(n); });
  ASSERT_TRUE(tb.scoreboard().ok());
  // Measured 117 and 118 per 1000 cycles.
  EXPECT_LE(w.first, budget(119));
  EXPECT_LE(w.second, budget(119));
}

}  // namespace
}  // namespace pmsb
