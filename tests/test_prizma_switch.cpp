// Tests of the PRIZMA-style interleaved shared buffer (section 5.3): full
// functional correctness -- the paper's argument against it is silicon cost,
// so the model must *work* as well as the pipelined buffer.

#include <gtest/gtest.h>

#include "arch/prizma/prizma_switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

using PrizmaTestbench = Testbench<PrizmaSwitch, PrizmaConfig>;

PrizmaConfig prizma_cfg(unsigned n = 4, unsigned banks = 64) {
  PrizmaConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * n;
  cfg.n_banks = banks;
  return cfg;
}

TEST(PrizmaSwitch, SingleCellCutsThrough) {
  const PrizmaConfig cfg = prizma_cfg();
  PrizmaSwitch sw(cfg);
  Engine eng;
  eng.add(&sw);
  const CellFormat fmt = cfg.cell_format();
  const Cycle a0 = eng.now() + 1;
  std::vector<Flit> out_trace;
  for (unsigned k = 0; k < fmt.length_words + 6; ++k) {
    if (k < fmt.length_words)
      sw.in_link(0).drive_next(eng.now(), Flit{true, k == 0, cell_word(4, 3, k, fmt)});
    eng.step();
    out_trace.push_back(sw.out_link(3).now(eng.now()));
  }
  // Read starts at a0+1 (queue committed), head on the wire at a0+2.
  const Flit& head = out_trace[a0 + 1];
  EXPECT_TRUE(head.valid && head.sop);
  EXPECT_EQ(head.data, cell_word(4, 3, 0, fmt));
  EXPECT_EQ(sw.stats().cut_through_cells, 1u);
}

TEST(PrizmaSwitch, OneCellPerBankLimitsCapacity) {
  // M banks hold at most M cells: hammering one output with M+extra cells
  // drops the excess, regardless of cell size vs bank count arithmetic.
  PrizmaConfig cfg = prizma_cfg(4, 4);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 1.0;
  spec.load = 1.0;
  spec.seed = 7;
  PrizmaTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(10000);
  EXPECT_GT(tb.dut().stats().dropped_no_addr, 0u);
  EXPECT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
}

struct PrizmaCase {
  unsigned n;
  unsigned banks;
  double load;
  PatternKind pattern;
  std::uint64_t seed;
};

void PrintTo(const PrizmaCase& c, std::ostream* os) {
  *os << "n" << c.n << "_M" << c.banks << "_load" << static_cast<int>(c.load * 100) << "_pat"
      << static_cast<int>(c.pattern) << "_seed" << c.seed;
}

class PrizmaRandom : public ::testing::TestWithParam<PrizmaCase> {};

TEST_P(PrizmaRandom, ScoreboardCleanAndDrains) {
  const PrizmaCase& pc = GetParam();
  const PrizmaConfig cfg = prizma_cfg(pc.n, pc.banks);
  TrafficSpec spec;
  spec.load = pc.load;
  spec.pattern = pc.pattern;
  spec.seed = pc.seed;
  PrizmaTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(15000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
  const auto& st = tb.dut().stats();
  EXPECT_EQ(st.heads_seen, st.accepted + st.dropped());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PrizmaRandom,
    ::testing::Values(PrizmaCase{2, 16, 0.6, PatternKind::kUniform, 21},
                      PrizmaCase{4, 64, 0.8, PatternKind::kUniform, 22},
                      PrizmaCase{4, 8, 1.0, PatternKind::kHotspot, 23},
                      PrizmaCase{8, 256, 0.9, PatternKind::kUniform, 24},
                      PrizmaCase{8, 64, 1.0, PatternKind::kPermutation, 25}));

TEST(PrizmaSwitch, FullLoadPermutationSustainsLineRate) {
  const PrizmaConfig cfg = prizma_cfg(4, 32);
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kPermutation;
  spec.load = 1.0;
  spec.seed = 26;
  PrizmaTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(8000);
  EXPECT_EQ(tb.dut().stats().dropped(), 0u);
  EXPECT_GE(tb.delivered(), 4u * (8000u / 8 - 6));
}

TEST(PrizmaSwitch, MatchesPipelinedDeliveriesStatistically) {
  // Same traffic into PRIZMA and the pipelined switch: both are full-
  // throughput shared buffers, so delivered counts should match closely
  // (identical up to boundary effects at the end of the run).
  PrizmaConfig pcfg = prizma_cfg(4, 64);
  SwitchConfig scfg;
  scfg.n_ports = 4;
  scfg.word_bits = 16;
  scfg.cell_words = 8;
  scfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.load = 0.85;
  spec.seed = 27;
  PrizmaTestbench pz(pcfg, 4, pcfg.cell_format(), spec);
  PipelinedTestbench pl(scfg, 4, scfg.cell_format(), spec);
  pz.run(30000);
  pl.run(30000);
  pz.drain(500000);
  pl.drain(500000);
  ASSERT_TRUE(pz.scoreboard().ok());
  ASSERT_TRUE(pl.scoreboard().ok());
  EXPECT_EQ(pz.injected(), pl.injected());  // Same seeds, same traffic.
  EXPECT_EQ(pz.delivered() + pz.dut().stats().dropped(),
            pl.delivered() + pl.dut().stats().dropped());
}

}  // namespace
}  // namespace pmsb
