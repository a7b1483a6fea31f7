// The baseline switch models pinned bit for bit: per-output delivery
// digests and every SwitchStats field under one hotspot workload that drops
// cells and cuts some through. Wide, PRIZMA, CQ and the dual switch sit
// outside the differential harness (src/check/differential.hpp) and their
// other tests are scoreboard-clean or statistical, so only this test
// notices when a change to the shared parts they run on (core/cell_port.hpp,
// core/out_queues.hpp, core/latch_window.hpp) moves a single delivery or
// counter. FastSwitch rides along for its pooled cell buffers, which the
// differential checks only on drop-free runs.

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "arch/cq/cq_switch.hpp"
#include "arch/prizma/prizma_switch.hpp"
#include "arch/wide/wide_switch.hpp"
#include "common/rng.hpp"
#include "core/dual_switch.hpp"
#include "core/fast_switch.hpp"
#include "core/testbench.hpp"
#include "sim/engine.hpp"
#include "traffic/generators.hpp"

namespace pmsb {
namespace {

constexpr unsigned kPorts = 4;
constexpr Cycle kLoadCycles = 6000;
constexpr Cycle kDrainCycles = 3000;

/// Output 0 takes half of all cells plus its uniform share: about twice its
/// line rate at this load, so every model drops, while the other outputs
/// run light enough to find idle links for cut-through.
TrafficSpec hotspot_spec() {
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kGeometric;
  spec.pattern = PatternKind::kHotspot;
  spec.load = 0.8;
  spec.hot_fraction = 0.5;
  spec.seed = 25;
  return spec;
}

using StatsRow = std::array<std::uint64_t, 14>;

StatsRow stats_row(const SwitchStats& s) {
  return {s.heads_seen,        s.accepted,          s.dropped_no_addr,   s.dropped_no_slot,
          s.dropped_out_limit, s.read_grants,       s.cut_through_cells, s.snoop_cells,
          s.write_initiations, s.read_initiations,  s.snoop_initiations, s.idle_cycles,
          s.read_stall_cycles, s.cycles};
}

struct Outcome {
  std::array<std::uint64_t, kPorts> digest{};  ///< Per output: words + head cycle.
  StatsRow stats{};
};

/// Drives `sw` the way Testbench does (same seeding, same component order),
/// but folds every delivered cell into its output's digest in delivery
/// order: each word of the cell, then the cycle its head left.
template <typename SwitchT>
Outcome run_hotspot(SwitchT& sw, const CellFormat& fmt) {
  const TrafficSpec spec = hotspot_spec();
  Outcome out;
  Engine eng;
  Rng seeder(spec.seed);
  HotspotDest dests(kPorts, 0, spec.hot_fraction);
  std::vector<std::unique_ptr<CellSource>> sources;
  std::vector<std::unique_ptr<CellSink>> sinks;
  for (unsigned i = 0; i < kPorts; ++i)
    sources.push_back(std::make_unique<CellSource>(i, &sw.in_link(i), fmt, &dests,
                                                   spec.arrivals, spec.load, seeder.split(),
                                                   spec.mean_burst_cells));
  for (unsigned o = 0; o < kPorts; ++o) {
    sinks.push_back(std::make_unique<CellSink>(o, &sw.out_link(o), fmt));
    sinks.back()->set_on_deliver([&out](const CellSink::Delivery& d) {
      std::uint64_t& h = out.digest[d.output];
      for (Word w : d.words) h = mix64(h ^ w);
      h = mix64(h ^ static_cast<std::uint64_t>(d.head_cycle));
    });
  }
  for (auto& s : sources) eng.add(s.get());
  eng.add(&sw);
  for (auto& s : sinks) eng.add(s.get());
  eng.run(kLoadCycles);
  for (auto& s : sources) s->set_enabled(false);
  eng.run(kDrainCycles);
  EXPECT_TRUE(sw.drained());
  out.stats = stats_row(sw.stats());
  return out;
}

void expect_pinned(const char* model, const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.digest, want.digest) << model << " delivery digests";
  EXPECT_EQ(got.stats, want.stats) << model << " SwitchStats";
  if (got.digest == want.digest && got.stats == want.stats) return;
  // Print the measured row in table form, for a deliberate re-pin.
  std::printf("{\"%s\", {", model);
  for (std::uint64_t d : got.digest) std::printf("0x%016" PRIx64 "ull, ", d);
  std::printf("}, {");
  for (std::uint64_t v : got.stats) std::printf("%" PRIu64 ", ", v);
  std::printf("}},\n");
}

SwitchConfig base_cfg() {
  SwitchConfig cfg;
  cfg.n_ports = kPorts;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * kPorts;
  cfg.capacity_segments = 16;
  return cfg;
}

// Values captured before the baselines moved onto the shared ready-to-depart
// queue, cell transmitter and latch window.
TEST(Baselines, PinnedDeliveriesAndStats) {
  const Outcome wide_want{
      {0xf5d67bdbbec7d018ull, 0x22c29821f6ce512full, 0x24c945fec9f2ce24ull, 0x8e1bb164c6261a07ull},
      {2406, 1534, 0, 872, 0, 1534, 624, 0, 910, 910, 0, 7180, 0, 9000}};
  const Outcome prizma_want{
      {0x862b44e5e3a71029ull, 0xac7c11b42d86a7f4ull, 0xda23b9a39ab1cd7bull, 0xc645818675b469faull},
      {2406, 1221, 1185, 0, 0, 1221, 425, 0, 1221, 1221, 0, 0, 0, 9000}};
  const Outcome cq_rr_want{
      {0x6194dae77dceee3aull, 0xea378ed9434aa8c4ull, 0x0dca4d94ef805319ull, 0x31172f4c71a36ed3ull},
      {2406, 1650, 756, 0, 0, 1650, 0, 0, 1650, 1650, 0, 0, 0, 9000}};
  const Outcome cq_lqf_want{
      {0x7103a2bf05d17f73ull, 0x674cb6239f134c34ull, 0xa848348d9bdf3ee7ull, 0x56ff026f7f1771a6ull},
      {2406, 1650, 756, 0, 0, 1650, 0, 0, 1650, 1650, 0, 0, 0, 9000}};
  const Outcome dual_want{
      {0xa0e5348e96e8665aull, 0x0bb859a9b757558full, 0x8e6e9d6d37759c50ull, 0xe4c6176f7feaa3f9ull},
      {4800, 2396, 2404, 0, 0, 2396, 363, 654, 1742, 1742, 654, 0, 0, 9000}};
  const Outcome fast_want{
      {0xdb4cb59c6b9769beull, 0x30a85a1b6663faffull, 0x8db9e68ea759832aull, 0xb0cbbc6735f5f5c9ull},
      {2406, 1180, 1226, 0, 0, 1180, 282, 0, 1180, 1180, 0, 2943, 0, 9000}};

  {
    WideMemorySwitch sw(base_cfg());
    expect_pinned("wide", run_hotspot(sw, base_cfg().cell_format()), wide_want);
  }
  {
    PrizmaConfig cfg;
    cfg.n_ports = kPorts;
    cfg.word_bits = 16;
    cfg.cell_words = 2 * kPorts;
    cfg.n_banks = 12;
    PrizmaSwitch sw(cfg);
    expect_pinned("prizma", run_hotspot(sw, cfg.cell_format()), prizma_want);
  }
  {
    SwitchConfig cfg = base_cfg();
    cfg.capacity_segments = 32;  // Two cells per crosspoint.
    CrosspointQueuedSwitch rr(cfg, CqScheduler::kRoundRobin);
    expect_pinned("cq_rr", run_hotspot(rr, cfg.cell_format()), cq_rr_want);
    CrosspointQueuedSwitch lqf(cfg, CqScheduler::kLongestQueue);
    expect_pinned("cq_lqf", run_hotspot(lqf, cfg.cell_format()), cq_lqf_want);
  }
  {
    DualSwitchConfig cfg;
    cfg.n_ports = kPorts;
    cfg.word_bits = 16;
    cfg.capacity_segments_per_group = 6;
    DualPipelinedSwitch sw(cfg);
    expect_pinned("dual", run_hotspot(sw, cfg.cell_format()), dual_want);
  }
  {
    SwitchConfig cfg = base_cfg();
    cfg.capacity_segments = 6;  // Full often: heads wait out their window.
    FastSwitch sw(cfg);
    expect_pinned("fast", run_hotspot(sw, cfg.cell_format()), fast_want);
  }
}

}  // namespace
}  // namespace pmsb
