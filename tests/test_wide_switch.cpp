// Tests of the wide-memory baseline (figure 3): functional correctness via
// the scoreboard, the double-buffering requirement, and the restricted
// cut-through opportunity that distinguishes it from the pipelined memory.

#include <gtest/gtest.h>

#include "arch/wide/wide_switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

using WideTestbench = Testbench<WideMemorySwitch, SwitchConfig>;

SwitchConfig wide_cfg(unsigned n = 4, unsigned cap_cells = 32) {
  SwitchConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * n;
  cfg.capacity_segments = cap_cells;  // One segment per cell for wide.
  return cfg;
}

TEST(WideSwitch, RejectsMultiSegmentCells) {
  SwitchConfig cfg = wide_cfg();
  cfg.cell_words = 16;  // 2 segments at n=4.
  cfg.capacity_segments = 32;
  EXPECT_THROW(WideMemorySwitch{cfg}, std::invalid_argument);
}

TEST(WideSwitch, BypassCutThroughLatencyIsTwo) {
  const SwitchConfig cfg = wide_cfg();
  WideMemorySwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const CellFormat fmt = cfg.cell_format();
  const Cycle a0 = eng.now() + 1;
  std::vector<Flit> out_trace;
  for (unsigned k = 0; k < fmt.length_words + 4; ++k) {
    if (k < fmt.length_words)
      sw.in_link(0).drive_next(eng.now(), Flit{true, k == 0, cell_word(9, 1, k, fmt)});
    eng.step();
    out_trace.push_back(sw.out_link(1).now(eng.now()));
  }
  const Flit& head = out_trace[a0 + 1];
  EXPECT_TRUE(head.valid && head.sop);
  EXPECT_EQ(head.data, cell_word(9, 1, 0, fmt));
  EXPECT_EQ(sw.bypass_cells(), 1u);
}

TEST(WideSwitch, StoreAndForwardWhenOutputBusy) {
  // Two cells to one output: the second cannot take the bypass (the output
  // is owned), so it must be fully assembled, stored, and read back -- the
  // figure 3 limitation ("the paths provided do not suffice" mid-cell).
  const SwitchConfig cfg = wide_cfg();
  WideMemorySwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const CellFormat fmt = cfg.cell_format();
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(0).drive_next(eng.now(), Flit{true, k == 0, cell_word(1, 1, k, fmt)});
    sw.in_link(2).drive_next(eng.now(), Flit{true, k == 0, cell_word(2, 1, k, fmt)});
    eng.step();
  }
  for (int k = 0; k < 40; ++k) eng.step();
  EXPECT_EQ(sw.stats().read_grants, 2u);
  EXPECT_EQ(sw.bypass_cells(), 1u);            // Only one took the bypass.
  EXPECT_EQ(sw.stats().write_initiations, 1u); // The other went to memory.
  EXPECT_TRUE(sw.drained());
}

struct WideCase {
  unsigned n;
  double load;
  unsigned cap;
  ArrivalKind arrivals;
  PatternKind pattern;
  std::uint64_t seed;
};

void PrintTo(const WideCase& c, std::ostream* os) {
  *os << "n" << c.n << "_load" << static_cast<int>(c.load * 100) << "_cap" << c.cap << "_arr"
      << static_cast<int>(c.arrivals) << "_pat" << static_cast<int>(c.pattern) << "_seed"
      << c.seed;
}

class WideRandom : public ::testing::TestWithParam<WideCase> {};

TEST_P(WideRandom, ScoreboardCleanAndDrains) {
  const WideCase& wc = GetParam();
  const SwitchConfig cfg = wide_cfg(wc.n, wc.cap);
  TrafficSpec spec;
  spec.arrivals = wc.arrivals;
  spec.pattern = wc.pattern;
  spec.load = wc.load;
  spec.seed = wc.seed;
  WideTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(15000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WideRandom,
    ::testing::Values(
        WideCase{2, 0.5, 16, ArrivalKind::kGeometric, PatternKind::kUniform, 81},
        WideCase{4, 0.8, 32, ArrivalKind::kGeometric, PatternKind::kUniform, 82},
        WideCase{4, 1.0, 32, ArrivalKind::kSaturated, PatternKind::kUniform, 83},
        WideCase{4, 1.0, 8, ArrivalKind::kSaturated, PatternKind::kHotspot, 84},
        WideCase{8, 0.9, 64, ArrivalKind::kSlotted, PatternKind::kUniform, 85},
        WideCase{8, 1.0, 128, ArrivalKind::kSaturated, PatternKind::kPermutation, 86}));

TEST(WideSwitch, FullLoadPermutationSustainsLineRate) {
  // With output double-buffering the wide organization also reaches full
  // line rate on contention-free traffic -- the paper's point is cost, not
  // peak throughput.
  const SwitchConfig cfg = wide_cfg(4, 32);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 90;
  WideTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(8000);
  EXPECT_EQ(tb.dut().stats().dropped(), 0u);
  EXPECT_GE(tb.delivered(), 4u * (8000u / 8 - 6));
}

TEST(WideSwitch, HigherLatencyThanPipelinedAtModerateLoad) {
  // The headline functional difference (section 3.2/3.3): the pipelined
  // memory can start a departure any cycle after the head arrives; the wide
  // memory must usually wait for full assembly. Same traffic, same seeds.
  SwitchConfig cfg = wide_cfg(4, 64);
  TrafficSpec spec;
  spec.load = 0.6;
  spec.seed = 91;
  WideTestbench wide(cfg, cfg.n_ports, cfg.cell_format(), spec);
  PipelinedTestbench pipe(cfg, cfg.n_ports, cfg.cell_format(), spec);
  wide.run(40000);
  pipe.run(40000);
  wide.drain(500000);
  pipe.drain(500000);
  ASSERT_TRUE(wide.scoreboard().ok());
  ASSERT_TRUE(pipe.scoreboard().ok());
  EXPECT_GT(wide.scoreboard().latency().mean(), pipe.scoreboard().latency().mean());
}

}  // namespace
}  // namespace pmsb
