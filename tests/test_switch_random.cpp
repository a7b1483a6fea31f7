// Randomized end-to-end verification of the pipelined switch: a parameter
// grid over switch size, load, arrival process, and destination pattern,
// each run checked by the scoreboard (payload integrity, per-pair FIFO
// order, conservation) and drained to empty.

#include <gtest/gtest.h>

#include "core/switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

struct RandomCase {
  unsigned n;
  unsigned word_bits;
  unsigned capacity_cells;
  double load;
  ArrivalKind arrivals;
  PatternKind pattern;
  std::uint64_t seed;
};

void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "n" << c.n << "_w" << c.word_bits << "_cap" << c.capacity_cells << "_load"
      << static_cast<int>(c.load * 100) << "_arr" << static_cast<int>(c.arrivals) << "_pat"
      << static_cast<int>(c.pattern) << "_seed" << c.seed;
}

class SwitchRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SwitchRandom, ScoreboardCleanAndDrains) {
  const RandomCase& rc = GetParam();
  SwitchConfig cfg;
  cfg.n_ports = rc.n;
  cfg.word_bits = rc.word_bits;
  cfg.cell_words = 2 * rc.n;
  cfg.capacity_segments = rc.capacity_cells;
  TrafficSpec spec;
  spec.arrivals = rc.arrivals;
  spec.pattern = rc.pattern;
  spec.load = rc.load;
  spec.seed = rc.seed;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);

  tb.run(15000);
  ASSERT_TRUE(tb.drain(500000));

  const Scoreboard& sb = tb.scoreboard();
  EXPECT_TRUE(sb.ok()) << sb.errors().front();
  EXPECT_TRUE(sb.fully_drained());
  const auto& st = tb.dut().stats();
  EXPECT_EQ(sb.injected(), sb.delivered() + sb.dropped());
  EXPECT_EQ(tb.injected(), sb.injected());
  EXPECT_EQ(tb.delivered(), sb.delivered());
  // Single-segment cells can only be dropped for lack of buffer space, never
  // for lack of a stage-0 slot (the window guarantee, DESIGN.md inv. 2).
  EXPECT_EQ(st.dropped_no_slot, 0u);
  if (st.dropped() == 0) {
    EXPECT_EQ(tb.injected(), tb.delivered());
  }
}

std::vector<RandomCase> make_grid() {
  std::vector<RandomCase> cases;
  std::uint64_t seed = 1000;
  for (unsigned n : {2u, 4u, 8u}) {
    for (double load : {0.3, 0.7, 1.0}) {
      for (ArrivalKind ak : {ArrivalKind::kGeometric, ArrivalKind::kSlotted}) {
        for (PatternKind pk : {PatternKind::kUniform, PatternKind::kHotspot}) {
          cases.push_back(RandomCase{n, 16, 64, load, ak, pk, seed++});
        }
      }
    }
  }
  // A few stressed corners: tiny buffers, narrow words, permutations.
  cases.push_back(RandomCase{4, 8, 4, 1.0, ArrivalKind::kSaturated, PatternKind::kUniform, 7});
  cases.push_back(RandomCase{4, 8, 4, 1.0, ArrivalKind::kSaturated, PatternKind::kHotspot, 8});
  cases.push_back(
      RandomCase{8, 16, 256, 1.0, ArrivalKind::kSaturated, PatternKind::kPermutation, 9});
  cases.push_back(RandomCase{2, 4, 8, 0.9, ArrivalKind::kSlotted, PatternKind::kUniform, 10});
  cases.push_back(RandomCase{3, 16, 27, 0.8, ArrivalKind::kGeometric, PatternKind::kUniform, 11});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SwitchRandom, ::testing::ValuesIn(make_grid()));

// Bursty word-level traffic through the same scoreboard.
class SwitchBursty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchBursty, BurstTrainsSurviveVerification) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 32;
  TrafficSpec spec;
  spec.load = 0.8;
  spec.arrivals = ArrivalKind::kBursty;
  spec.mean_burst_cells = 6.0;
  spec.seed = GetParam();
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(20000);
  ASSERT_TRUE(tb.drain(500000));
  EXPECT_TRUE(tb.scoreboard().ok()) << tb.scoreboard().errors().front();
  EXPECT_TRUE(tb.scoreboard().fully_drained());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchBursty, ::testing::Values(1, 2, 3, 4, 5));

// The figure-7 ablation counters and the switch's own statistics, pinned on
// fixed schedules. One run per pin counts both address paths. Values were
// captured before the memory walked only its active stages, when each path
// ran as a switch of its own; they prove the activity-proportional cycle
// performs exactly the same decodes, register transfers and bank accesses,
// including at 40 ports (S = 80, beyond one 64-bit stage word).
TEST(SwitchAddrPath, PinnedAblationCountersAcrossSizes) {
  struct Pin {
    unsigned ports;
    Cycle cycles;
    std::uint64_t decodes_7a, decodes_7b, transfers;  // transfers: ctrl = one-hot (7b)
    std::uint64_t reads, writes, bank_digest;
    // SwitchStats.
    std::uint64_t heads, accepted, read_grants, cut_through, snoop_cells;
    std::uint64_t write_inits, read_inits, snoop_inits, idle, read_stalls;
  };
  const Pin pins[] = {
      {4, 20000, 112725, 14094, 98637, 48803, 63922, 0xfb9b97df9315be46ULL,
       7993, 7992, 7989, 3009, 1887, 6105, 6102, 1887, 5906, 13749},
      {16, 6000, 135869, 4257, 131634, 59146, 76723, 0x68fe43bdbf6e97d4ULL,
       2404, 2404, 2370, 998, 517, 1887, 1853, 517, 1743, 4141},
      {40, 2500, 135589, 1727, 133918, 55290, 80299, 0x772cf26acb1748d3ULL,
       1024, 1021, 970, 512, 264, 757, 706, 264, 773, 1780},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "p" << pin.ports);
    const SwitchConfig cfg = SwitchConfig::for_ports(pin.ports);
    PipelinedSwitch sw(cfg);
    Engine eng;
    UniformDest dests(pin.ports);
    Rng seeder(pin.ports * 101 + 7);
    std::vector<std::unique_ptr<CellSource>> sources;
    for (unsigned i = 0; i < pin.ports; ++i) {
      sources.push_back(std::make_unique<CellSource>(i, &sw.in_link(i), cfg.cell_format(),
                                                     &dests, ArrivalKind::kGeometric, 0.8,
                                                     seeder.split()));
      eng.add(sources.back().get());
    }
    eng.add(&sw);
    eng.run(pin.cycles);

    const PipelinedMemory& mem = sw.memory();
    const AddrPathCounts a = mem.addr_path();
    EXPECT_EQ(a.decodes_7a, pin.decodes_7a);
    EXPECT_EQ(a.decodes_7b, pin.decodes_7b);
    EXPECT_EQ(a.one_hot_reg_transfers, pin.transfers);
    EXPECT_EQ(mem.ctrl().ctrl_reg_transfers(), pin.transfers);
    std::uint64_t reads = 0, writes = 0, digest = 0;
    for (unsigned s = 0; s < mem.stages(); ++s) {
      reads += mem.bank(s).total_reads();
      writes += mem.bank(s).total_writes();
      digest = mix64(digest ^ (mem.bank(s).total_reads() << 32 | mem.bank(s).total_writes()));
    }
    EXPECT_EQ(reads, pin.reads);
    EXPECT_EQ(writes, pin.writes);
    EXPECT_EQ(digest, pin.bank_digest);

    const SwitchStats& st = sw.stats();
    EXPECT_EQ(st.heads_seen, pin.heads);
    EXPECT_EQ(st.accepted, pin.accepted);
    EXPECT_EQ(st.dropped(), 0u);
    EXPECT_EQ(st.read_grants, pin.read_grants);
    EXPECT_EQ(st.cut_through_cells, pin.cut_through);
    EXPECT_EQ(st.snoop_cells, pin.snoop_cells);
    EXPECT_EQ(st.write_initiations, pin.write_inits);
    EXPECT_EQ(st.read_initiations, pin.read_inits);
    EXPECT_EQ(st.snoop_initiations, pin.snoop_inits);
    EXPECT_EQ(st.idle_cycles, pin.idle);
    EXPECT_EQ(st.read_stall_cycles, pin.read_stalls);
    EXPECT_EQ(st.cycles, static_cast<std::uint64_t>(pin.cycles));
  }
}

}  // namespace
}  // namespace pmsb
