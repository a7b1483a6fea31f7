// Heap-allocation budgets. This binary replaces global operator new in its
// own process and counts every call and every byte requested.
//
// Steady state: each system runs past warm-up, then the allocations of two
// equal windows are counted. The budgets are the measured counts of the
// current code, per 1000 simulated cycles; they only ratchet down. A change
// that adds an allocation per cell or per message fails here instead of
// showing up in a profile later. The banyan runs past saturation, so its
// backlog grows without end: its second window must allocate no more than
// its first.
//
// Construction: the bytes a fabric or a testbench requests while it is
// built, so a constant-size table per node or per queue cannot come back
// unnoticed.
//
// Counts are of the unchecked simulator: PMSB_CHECK is pinned to 0 in this
// process, since the invariant checkers record per-event state by design.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "arch/cq/cq_switch.hpp"
#include "arch/prizma/prizma_switch.hpp"
#include "arch/wide/wide_switch.hpp"
#include "core/config.hpp"
#include "core/dual_switch.hpp"
#include "core/fast_switch.hpp"
#include "core/testbench.hpp"
#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "stats/stats.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined at a `new T` site, GCC pairs the free() with that
// operator new and reports a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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

/// Bytes requested from operator new while `build()` runs.
template <typename Build>
std::uint64_t bytes_of(Build build) {
  const std::uint64_t at = g_bytes.load();
  build();
  return g_bytes.load() - at;
}

class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override { setenv("PMSB_CHECK", "0", 1); }
};

/// A saturated 16-port `SwitchT` in its Testbench, under the Scoreboard.
template <typename SwitchT, typename ConfigT>
Windows saturated_windows(const ConfigT& cfg, unsigned n_ports, const CellFormat& fmt) {
  TrafficSpec t;
  t.arrivals = ArrivalKind::kSaturated;
  t.load = 1.0;
  t.seed = 1;
  Testbench<SwitchT, ConfigT> tb(cfg, n_ports, fmt, t, /*with_scoreboard=*/true);
  const Windows w = count_windows([&](Cycle n) { tb.run(n); });
  EXPECT_TRUE(tb.scoreboard().ok());
  EXPECT_GT(tb.delivered(), 0u);
  return w;
}

fabric::FabricConfig torus_config() {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 8, 8};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 8;
  cfg.load = 0.45;
  cfg.seed = 1;
  cfg.threads = 1;
  return cfg;
}

fabric::FabricConfig banyan_config() {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 32, 1};
  cfg.link_pipe_stages = 1;
  cfg.lanes = 4;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = "hotsenders:0.25,0.95";
  cfg.seed = 1;
  cfg.threads = 1;
  return cfg;
}

// The 32-endpoint banyan of bench/perf's banyan32_hotsenders: past
// saturation, so the hot senders' pending messages pile up for the whole
// run. Their count is not their memory: the backlog is a counter and a
// replay cursor.
TEST_F(AllocBudget, BanyanPastSaturationDoesNotGrow) {
  const fabric::FabricConfig cfg = banyan_config();
  auto fab = fabric::Fabric::build(cfg.topo, cfg);
  const Windows w = count_windows([&](Cycle n) { fab->run(n); });
  const fabric::FabricStats st = fab->stats();
  ASSERT_GT(st.backlog, 10000u) << "the run must be past saturation to test the backlog";
  EXPECT_LE(w.second, w.first);
  // Measured 0 per window. A queued backlog took 183; a run() that rebuilt
  // its scheduler list and rebalance plan took 5.
  EXPECT_LE(w.first, budget(0));
}

// The 8x8 torus of bench/perf's torus8_uniform, below saturation.
TEST_F(AllocBudget, TorusUniform) {
  const fabric::FabricConfig cfg = torus_config();
  auto fab = fabric::Fabric::build(cfg.topo, cfg);
  const Windows w = count_windows([&](Cycle n) { fab->run(n); });
  // Measured 3 and 0 per window (0.25 and 0 per 1000 cycles); a run() that
  // rebuilt its scheduler list and rebalance plan took 8 and 5, std::deque
  // output queues 698 and 703 per 1000 cycles.
  EXPECT_LE(w.first, budget(0.25));
  EXPECT_LE(w.second, budget(0.25));
}

// bench/perf's torus8_hotquad: the same torus with FastSwitch outside the
// top-left 4x4 quadrant.
TEST_F(AllocBudget, TorusHotQuad) {
  fabric::FabricConfig cfg = torus_config();
  cfg.fast_node = [](unsigned node) { return !(node % 8 < 4 && node / 8 < 4); };
  auto fab = fabric::Fabric::build(cfg.topo, cfg);
  const Windows w = count_windows([&](Cycle n) { fab->run(n); });
  // Measured 27 and 8 per window (2.25 and 0.67 per 1000 cycles): FastSwitch's
  // pool and queues still reach new peaks.
  EXPECT_LE(w.first, budget(2.25));
  EXPECT_LE(w.second, budget(2.25));
}

// One saturated 16-port PipelinedSwitch under the reference Scoreboard, as
// bench/perf's switch16_sat.
TEST_F(AllocBudget, SaturatedSwitchWithScoreboard) {
  const SwitchConfig cfg = SwitchConfig::for_ports(16);
  const Windows w = saturated_windows<PipelinedSwitch>(cfg, cfg.n_ports, cfg.cell_format());
  // Measured 12 and 13 per window (1.0 and 1.08 per 1000 cycles): output
  // queues reaching new peak depths. std::deque queues took 117 and 118 per
  // 1000 cycles.
  EXPECT_LE(w.first, budget(1.2));
  EXPECT_LE(w.second, budget(1.2));
}

TEST_F(AllocBudget, SaturatedDualPipelinedSwitch) {
  DualSwitchConfig cfg;
  cfg.n_ports = 16;
  const Windows w = saturated_windows<DualPipelinedSwitch>(cfg, cfg.n_ports, cfg.cell_format());
  // Measured 9 and 6 per window.
  EXPECT_LE(w.first, budget(0.8));
  EXPECT_LE(w.second, budget(0.8));
}

TEST_F(AllocBudget, SaturatedFastSwitch) {
  const SwitchConfig cfg = SwitchConfig::for_ports(16);
  const Windows w = saturated_windows<FastSwitch>(cfg, cfg.n_ports, cfg.cell_format());
  // Measured 25 and 18 per window.
  EXPECT_LE(w.first, budget(2.2));
  EXPECT_LE(w.second, budget(2.2));
}

TEST_F(AllocBudget, SaturatedWideMemorySwitch) {
  const SwitchConfig cfg = SwitchConfig::for_ports(16);
  const Windows w = saturated_windows<WideMemorySwitch>(cfg, cfg.n_ports, cfg.cell_format());
  // Measured 9 and 10 per window.
  EXPECT_LE(w.first, budget(0.9));
  EXPECT_LE(w.second, budget(0.9));
}

TEST_F(AllocBudget, SaturatedPrizmaSwitch) {
  PrizmaConfig cfg;
  cfg.n_ports = 16;
  cfg.cell_words = 32;
  cfg.n_banks = 512;  // 32 cells per port, as SwitchConfig::for_ports.
  const Windows w = saturated_windows<PrizmaSwitch>(cfg, cfg.n_ports, cfg.cell_format());
  // Measured 12 and 13 per window.
  EXPECT_LE(w.first, budget(1.2));
  EXPECT_LE(w.second, budget(1.2));
}

TEST_F(AllocBudget, SaturatedCrosspointQueuedSwitch) {
  CqConfig cfg;
  cfg.base = SwitchConfig::for_ports(16);  // 2 cells per crosspoint.
  const Windows w = saturated_windows<CrosspointQueuedSwitch>(cfg, cfg.base.n_ports,
                                                              cfg.base.cell_format());
  // Measured 0 and 2 per window.
  EXPECT_LE(w.first, budget(0.25));
  EXPECT_LE(w.second, budget(0.25));
}

// A histogram stores counts only up to its largest sample: building one,
// copying, merging or clearing it while empty touches no heap, and the
// first sample allocates once.
TEST_F(AllocBudget, FreshHistogramsAllocateNothing) {
  std::uint64_t at = g_allocs.load();
  {
    HdrHistogram h;
    LatencyStats l(100);
    HdrHistogram copy = h;
    copy.merge(h);
    copy.clear();
    EXPECT_EQ(h.samples() + l.samples() + copy.samples(), 0u);
  }
  EXPECT_EQ(g_allocs.load() - at, 0u);
  HdrHistogram h;
  at = g_allocs.load();
  h.add(40);
  h.add(41);
  EXPECT_EQ(g_allocs.load() - at, 1u);
}

// Bytes requested while building the fabrics of bench/perf's torus and
// banyan workloads and the 16-port switch16_sat testbench.
TEST_F(AllocBudget, ConstructionBytes) {
  const fabric::FabricConfig torus = torus_config();
  const fabric::FabricConfig banyan = banyan_config();
  std::unique_ptr<fabric::Fabric> keep;  // Destroyed outside the count.
  const std::uint64_t torus_bytes =
      bytes_of([&] { keep = fabric::Fabric::build(torus.topo, torus); });
  const std::uint64_t banyan_bytes =
      bytes_of([&] { keep = fabric::Fabric::build(banyan.topo, banyan); });
  const SwitchConfig cfg = SwitchConfig::for_ports(16);
  TrafficSpec t;
  t.arrivals = ArrivalKind::kSaturated;
  t.load = 1.0;
  std::unique_ptr<PipelinedTestbench> tb;
  const std::uint64_t tb_bytes = bytes_of([&] {
    tb = std::make_unique<PipelinedTestbench>(cfg, cfg.n_ports, cfg.cell_format(), t,
                                              /*with_scoreboard=*/true);
  });
  // Measured 1 278 032, 255 530 and 189 548 bytes; with whole-range
  // histograms and std::deque queues they were 3 363 408, 1 221 930 and
  // 394 804.
  EXPECT_LE(torus_bytes, 1300000u);
  EXPECT_LE(banyan_bytes, 260000u);
  EXPECT_LE(tb_bytes, 192000u);
}

}  // namespace
}  // namespace pmsb
