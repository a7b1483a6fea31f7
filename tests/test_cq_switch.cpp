// Tests of the crosspoint-queued baseline (Cao & Panwar): functional
// correctness via the scoreboard, full line rate on contention-free
// traffic, the static-partitioning overflow behaviour that distinguishes
// it from a shared pool, and the two output schedulers.

#include <gtest/gtest.h>

#include "arch/cq/cq_switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

using CqTestbench = Testbench<CrosspointQueuedSwitch, CqConfig>;

CqConfig cq_cfg(unsigned n = 4, unsigned cap_cells = 32,
                CqScheduler sched = CqScheduler::kRoundRobin) {
  CqConfig cfg;
  cfg.base.n_ports = n;
  cfg.base.word_bits = 16;
  cfg.base.cell_words = 2 * n;
  cfg.base.capacity_segments = cap_cells;
  cfg.sched = sched;
  return cfg;
}

TEST(CqSwitch, RejectsPoolSmallerThanCrosspointGrid) {
  // 4x4 needs at least 16 cells; 8 cannot give every crosspoint a buffer.
  const CqConfig cfg = cq_cfg(4, 8);
  EXPECT_THROW(CrosspointQueuedSwitch{cfg}, std::invalid_argument);
}

TEST(CqSwitch, SplitsPoolEvenlyAcrossCrosspoints) {
  const CqConfig cfg = cq_cfg(4, 33);
  CrosspointQueuedSwitch sw(cfg);
  EXPECT_EQ(sw.crosspoint_capacity(), 2u);  // floor(33 / 16)
}

TEST(CqSwitch, StoreAndForwardDelivery) {
  // One cell in a quiet switch: assembled over L cycles, queued at its
  // crosspoint, then shifted out -- head appears after full assembly.
  const CqConfig cfg = cq_cfg();
  CrosspointQueuedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const CellFormat fmt = cfg.base.cell_format();
  std::vector<Flit> out_trace;
  for (unsigned k = 0; k < 3 * fmt.length_words; ++k) {
    if (k < fmt.length_words)
      sw.in_link(0).drive_next(eng.now(), Flit{true, k == 0, cell_word(9, 1, k, fmt)});
    eng.step();
    out_trace.push_back(sw.out_link(1).now(eng.now()));
  }
  unsigned head_at = 0;
  for (unsigned k = 0; k < out_trace.size(); ++k) {
    if (out_trace[k].valid && out_trace[k].sop) {
      head_at = k;
      break;
    }
  }
  // Assembly completes when the tail is on the wire (cycle L); the cell is
  // queued at the commit, read the following cycle, so the head cannot
  // appear before cycle L + 1.
  EXPECT_GE(head_at, fmt.length_words);
  EXPECT_EQ(out_trace[head_at].data, cell_word(9, 1, 0, fmt));
  for (int k = 0; k < 40; ++k) eng.step();
  EXPECT_TRUE(sw.drained());
  EXPECT_EQ(sw.stats().read_grants, 1u);
}

struct CqCase {
  unsigned n;
  double load;
  unsigned cap;
  ArrivalKind arrivals;
  PatternKind pattern;
  CqScheduler sched;
  std::uint64_t seed;
};

void PrintTo(const CqCase& c, std::ostream* os) {
  *os << "n" << c.n << "_load" << static_cast<int>(c.load * 100) << "_cap" << c.cap << "_arr"
      << static_cast<int>(c.arrivals) << "_pat" << static_cast<int>(c.pattern) << "_sched"
      << static_cast<int>(c.sched) << "_seed" << c.seed;
}

class CqRandom : public ::testing::TestWithParam<CqCase> {};

TEST_P(CqRandom, ScoreboardCleanAndDrains) {
  const CqCase& cc = GetParam();
  const CqConfig cfg = cq_cfg(cc.n, cc.cap, cc.sched);
  TrafficSpec spec;
  spec.arrivals = cc.arrivals;
  spec.pattern = cc.pattern;
  spec.load = cc.load;
  spec.seed = cc.seed;
  CqTestbench tb(cfg, cfg.base.n_ports, cfg.base.cell_format(), spec);
  tb.run(15000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CqRandom,
    ::testing::Values(
        CqCase{2, 0.5, 16, ArrivalKind::kGeometric, PatternKind::kUniform,
               CqScheduler::kRoundRobin, 181},
        CqCase{4, 0.8, 32, ArrivalKind::kGeometric, PatternKind::kUniform,
               CqScheduler::kRoundRobin, 182},
        CqCase{4, 1.0, 32, ArrivalKind::kSaturated, PatternKind::kUniform,
               CqScheduler::kLongestQueue, 183},
        CqCase{4, 1.0, 16, ArrivalKind::kSaturated, PatternKind::kHotspot,
               CqScheduler::kRoundRobin, 184},
        CqCase{8, 0.9, 128, ArrivalKind::kSlotted, PatternKind::kUniform,
               CqScheduler::kLongestQueue, 185},
        CqCase{8, 1.0, 128, ArrivalKind::kSaturated, PatternKind::kPermutation,
               CqScheduler::kRoundRobin, 186}));

TEST(CqSwitch, FullLoadPermutationSustainsLineRate) {
  // Contention-free traffic: every crosspoint column has one active input,
  // no memory port to share -- full line rate, no drops.
  const CqConfig cfg = cq_cfg(4, 32);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 190;
  CqTestbench tb(cfg, cfg.base.n_ports, cfg.base.cell_format(), spec);
  tb.run(8000);
  EXPECT_EQ(tb.dut().stats().dropped(), 0u);
  EXPECT_GE(tb.delivered(), 4u * (8000u / 8 - 6));
}

TEST(CqSwitch, HotspotOverflowsItsCrosspointsWhileDieSitsEmpty) {
  // The static-partitioning cost: a saturated hotspot overflows its n
  // crosspoints even though (n-1)n crosspoints of the same die are idle.
  // A shared pool of the same total size absorbs far more of the burst --
  // the comparison bench_buffer_sharing quantifies; here we pin the drop
  // attribution and that losses happen well below total-buffer exhaustion.
  const CqConfig cfg = cq_cfg(4, 32);  // 2 cells per crosspoint.
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 1.0;  // Everyone to output 0.
  spec.load = 1.0;
  spec.seed = 191;
  CqTestbench tb(cfg, cfg.base.n_ports, cfg.base.cell_format(), spec, /*with_scoreboard=*/false);
  tb.run(20000);
  const SwitchStats& st = tb.dut().stats();
  EXPECT_GT(st.dropped_no_addr, 0u);
  EXPECT_EQ(st.dropped_no_slot, 0u);
  // 4 inputs offer to one output that serves 1 cell per cell time: ~3/4 of
  // the offered cells must be lost at the crosspoints.
  EXPECT_GT(static_cast<double>(st.dropped_no_addr),
            0.5 * static_cast<double>(st.heads_seen));
}

TEST(CqSwitch, SchedulersAreDeterministicAndConserve) {
  // Same seed, same scheduler => identical outcome; both schedulers
  // conserve cells (accepted == delivered after drain).
  for (const CqScheduler sched : {CqScheduler::kRoundRobin, CqScheduler::kLongestQueue}) {
    std::uint64_t delivered[2];
    for (int rep = 0; rep < 2; ++rep) {
      const CqConfig cfg = cq_cfg(4, 32, sched);
      TrafficSpec spec;
      spec.load = 0.9;
      spec.seed = 192;
      CqTestbench tb(cfg, cfg.base.n_ports, cfg.base.cell_format(), spec);
      tb.run(12000);
      ASSERT_TRUE(tb.drain(500000));
      ASSERT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
      EXPECT_EQ(tb.dut().stats().accepted, tb.delivered());
      delivered[rep] = tb.delivered();
    }
    EXPECT_EQ(delivered[0], delivered[1]);
  }
}

}  // namespace
}  // namespace pmsb
