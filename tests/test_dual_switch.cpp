// Tests of the section 3.5 half-quantum organization: two n-stage pipelined
// memories, cells of n words, one read plus one write initiation per cycle.

#include <gtest/gtest.h>

#include "core/dual_switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

using DualTestbench = Testbench<DualPipelinedSwitch, DualSwitchConfig>;

DualSwitchConfig dual_cfg(unsigned n, unsigned cap = 64) {
  DualSwitchConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = 16;
  cfg.capacity_segments_per_group = cap;
  return cfg;
}

TEST(DualSwitch, HalfQuantumCellSize) {
  const DualSwitchConfig cfg = dual_cfg(8);
  EXPECT_EQ(cfg.cell_words(), 8u);   // n words, not 2n.
  EXPECT_EQ(cfg.stages(), 8u);       // Per memory group.
}

TEST(DualSwitch, SingleCellCutThroughLatencyIsTwo) {
  const DualSwitchConfig cfg = dual_cfg(4);
  DualPipelinedSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const CellFormat fmt = cfg.cell_format();
  const Cycle a0 = eng.now() + 1;
  std::vector<Flit> out_trace;
  for (unsigned k = 0; k < fmt.length_words + 4; ++k) {
    if (k < fmt.length_words)
      sw.in_link(0).drive_next(eng.now(), Flit{true, k == 0, cell_word(3, 2, k, fmt)});
    eng.step();
    out_trace.push_back(sw.out_link(2).now(eng.now()));
  }
  const Flit& head = out_trace[a0 + 1];  // Wire during cycle a0 + 2.
  EXPECT_TRUE(head.valid);
  EXPECT_TRUE(head.sop);
  EXPECT_EQ(head.data, cell_word(3, 2, 0, fmt));
  for (unsigned k = 1; k < fmt.length_words; ++k) {
    EXPECT_EQ(out_trace[a0 + 1 + k].data, cell_word(3, 2, k, fmt));
  }
  EXPECT_EQ(sw.stats().snoop_initiations, 1u);
}

TEST(DualSwitch, FullLoadPermutationSustainsLineRate) {
  const DualSwitchConfig cfg = dual_cfg(4);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 3;
  DualTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(4000);
  EXPECT_EQ(tb.dut().stats().dropped(), 0u);
  // 4000 cycles / 4 words = 1000 cells per output, minus fill transient.
  EXPECT_GE(tb.delivered(), 4u * 995u);
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
}

TEST(DualSwitch, SustainsOneReadPlusOneWritePerCycle) {
  // Saturated uniform traffic: the organization's defining property is that
  // a read AND a write wave can be initiated in the same cycle (section 3.5,
  // "one write operation ... and one read operation ... in each and every
  // cycle"). At full load most cycles must be dual-initiation cycles.
  const DualSwitchConfig cfg = dual_cfg(4);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 5;
  DualTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  const auto& st = tb.dut().stats();
  EXPECT_GT(tb.dut().dual_initiation_cycles(), st.cycles / 2);
  const double out_util =
      static_cast<double>(st.read_grants) * cfg.cell_words() / (4.0 * st.cycles);
  EXPECT_GT(out_util, 0.90);
}

struct DualCase {
  unsigned n;
  double load;
  unsigned cap;
  PatternKind pattern;
  std::uint64_t seed;
};

void PrintTo(const DualCase& c, std::ostream* os) {
  *os << "n" << c.n << "_load" << static_cast<int>(c.load * 100) << "_cap" << c.cap << "_pat"
      << static_cast<int>(c.pattern) << "_seed" << c.seed;
}

class DualRandom : public ::testing::TestWithParam<DualCase> {};

TEST_P(DualRandom, ScoreboardCleanAndDrains) {
  const DualCase& dc = GetParam();
  const DualSwitchConfig cfg = [&] {
    DualSwitchConfig c = dual_cfg(dc.n, dc.cap);
    return c;
  }();
  TrafficSpec spec;
  spec.load = dc.load;
  spec.pattern = dc.pattern;
  spec.seed = dc.seed;
  DualTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(15000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.heads_seen, st.accepted + st.dropped());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DualRandom,
    ::testing::Values(DualCase{2, 0.5, 16, PatternKind::kUniform, 61},
                      DualCase{2, 1.0, 4, PatternKind::kUniform, 62},
                      DualCase{4, 0.8, 64, PatternKind::kUniform, 63},
                      DualCase{4, 1.0, 8, PatternKind::kHotspot, 64},
                      DualCase{8, 0.7, 64, PatternKind::kUniform, 65},
                      DualCase{8, 1.0, 128, PatternKind::kPermutation, 66}));

TEST(DualSwitch, GroupsStayBalancedUnderUniformLoad) {
  const DualSwitchConfig cfg = dual_cfg(4, 32);
  TrafficSpec spec;
  spec.load = 0.9;
  spec.seed = 71;
  DualTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  // Occupancy stays within total capacity and drains to zero.
  EXPECT_LE(tb.dut().buffer_in_use(), 64u);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_EQ(tb.dut().buffer_in_use(), 0u);
}

TEST(DualSwitch, InvalidConfigThrows) {
  DualSwitchConfig cfg = dual_cfg(4);
  cfg.word_bits = 2;  // dest_bits (2) >= word_bits.
  EXPECT_THROW(DualPipelinedSwitch{cfg}, std::invalid_argument);
  cfg = dual_cfg(4);
  cfg.capacity_segments_per_group = 0;
  EXPECT_THROW(DualPipelinedSwitch{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pmsb
