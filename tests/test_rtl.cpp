// Unit tests: RTL primitives -- the single-ported SRAM bank, the figure-5
// control pipeline, and the figure-7 address-path models.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "rtl/addr_decoder.hpp"
#include "rtl/ctrl_pipeline.hpp"
#include "rtl/sram_bank.hpp"

namespace pmsb {

// Test access to the word-line registers (corrupts one in a death test).
struct AddressPathPeer {
  /// Raise word line `line` of register s, which must share its 64-line
  /// block with the line already there.
  static void add_line(AddressPath& ap, unsigned s, unsigned line) {
    auto& r = ap.regs_[ap.phys(s)];
    ASSERT_EQ(r.block, line / 64);
    r.lines |= std::uint64_t{1} << (line % 64);
  }
};

namespace {

// read(), write() and write_snoop() are wrappers over access(), the one
// path the stage-walk oracle (check/stage_walk.hpp) uses; the semantics
// tests drive both.
TEST(SramBank, WriteCommitsAtTick) {
  SramBank m(16, 8);
  m.write(3, 0xAB);
  m.tick();
  EXPECT_EQ(m.read(3), 0xABu);
  m.tick();
  EXPECT_EQ(m.access(4, /*is_write=*/true, 0xCD), 0xCDu);  // The bus data.
  EXPECT_EQ(m.debug_peek(4), 0u);                          // Not yet committed.
  m.tick();
  EXPECT_EQ(m.debug_peek(4), 0xCDu);
  EXPECT_EQ(m.size(), 16u);  // The spare "no write" word is not addressable.
}

TEST(SramBank, ReadBeforeWriteSemantics) {
  SramBank m(16, 8);
  m.write(3, 0x11);
  m.tick();
  m.write(3, 0x22);
  // A read in the same cycle as the (staged) write would be a port
  // violation; read after tick sees the new value.
  m.tick();
  EXPECT_EQ(m.read(3), 0x22u);
  m.tick();
  // The same through access(): a staged write leaves the committed word in
  // place until the edge, and a read returns the array word, ignores its
  // data and commits nothing.
  EXPECT_EQ(m.access(3, /*is_write=*/true, 0x33), 0x33u);
  EXPECT_EQ(m.debug_peek(3), 0x22u);
  m.tick();
  EXPECT_EQ(m.access(3, /*is_write=*/false, 0x44), 0x33u);
  m.tick();
  EXPECT_EQ(m.debug_peek(3), 0x33u);
  EXPECT_EQ(m.total_writes(), 3u);
  EXPECT_EQ(m.total_reads(), 2u);
}

TEST(SramBankDeath, TwoAccessesOneCycle) {
  SramBank m(16, 8);
  m.read(0);
  EXPECT_DEATH(m.read(1), "single-ported");
}

TEST(SramBankDeath, ReadPlusWriteOneCycle) {
  SramBank m(16, 8);
  m.write(0, 1);
  EXPECT_DEATH(m.read(0), "single-ported");
}

TEST(SramBankDeath, SecondAccessThroughTheOnePath) {
  {
    SramBank m(16, 8);
    m.access(0, /*is_write=*/true, 1);
    EXPECT_DEATH(m.access(1, /*is_write=*/false, 0), "single-ported");
  }
  {
    SramBank m(16, 8);
    m.access(0, /*is_write=*/false, 0);
    EXPECT_DEATH(m.access(1, /*is_write=*/true, 1), "single-ported");
  }
}

TEST(SramBankDeath, WideData) {
  SramBank m(16, 8);
  EXPECT_DEATH(m.write(0, 0x100), "wider");
}

TEST(SramBank, PortReopensEachCycle) {
  SramBank m(16, 8);
  for (int c = 0; c < 10; ++c) {
    m.write(c % 16, static_cast<Word>(c));
    m.tick();
  }
  EXPECT_EQ(m.total_writes(), 10u);
}

TEST(SramBank, SnoopReturnsBusData) {
  SramBank m(16, 8);
  EXPECT_EQ(m.write_snoop(5, 0x3C), 0x3Cu);
  m.tick();
  EXPECT_EQ(m.read(5), 0x3Cu);
}

TEST(SramBank, RetainsDataOverTime) {
  SramBank m(64, 16);
  for (std::size_t a = 0; a < 64; ++a) {
    m.write(a, static_cast<Word>(a * 3));
    m.tick();
  }
  for (std::size_t a = 0; a < 64; ++a) {
    EXPECT_EQ(m.read(a), a * 3);
    m.tick();
  }
}

TEST(CtrlPipeline, DelaysControlByOneCyclePerStage) {
  CtrlPipeline p(4);
  StageCtrl c;
  c.op = StageOp::kWrite;
  c.addr = 9;
  c.in_link = 2;
  p.initiate(c);
  // Cycle 0: stage 0 sees the wave.
  EXPECT_EQ(p.at(0).op, StageOp::kWrite);
  EXPECT_TRUE(p.at(1).idle());
  p.tick();
  // Cycle 1: stage 1 sees it, stage 0 idle.
  EXPECT_TRUE(p.at(0).idle());
  EXPECT_EQ(p.at(1).op, StageOp::kWrite);
  EXPECT_EQ(p.at(1).addr, 9u);
  p.tick();
  EXPECT_EQ(p.at(2).op, StageOp::kWrite);
  p.tick();
  EXPECT_EQ(p.at(3).op, StageOp::kWrite);
  EXPECT_TRUE(p.busy());
  p.tick();
  EXPECT_FALSE(p.busy());
}

TEST(CtrlPipeline, TwoWavesPipeline) {
  CtrlPipeline p(3);
  StageCtrl a, b;
  a.op = StageOp::kRead;
  a.addr = 1;
  b.op = StageOp::kWrite;
  b.addr = 2;
  p.initiate(a);
  p.tick();
  p.initiate(b);
  EXPECT_EQ(p.at(0).op, StageOp::kWrite);
  EXPECT_EQ(p.at(1).op, StageOp::kRead);
  p.tick();
  EXPECT_EQ(p.at(1).op, StageOp::kWrite);
  EXPECT_EQ(p.at(2).op, StageOp::kRead);
}

TEST(CtrlPipelineDeath, DoubleInitiate) {
  CtrlPipeline p(3);
  StageCtrl c;
  c.op = StageOp::kRead;
  p.initiate(c);
  EXPECT_DEATH(p.initiate(c), "single-ported");
}

TEST(CtrlPipeline, CountsTransfers) {
  CtrlPipeline p(4);
  StageCtrl c;
  c.op = StageOp::kRead;
  p.initiate(c);
  for (int i = 0; i < 4; ++i) p.tick();
  // The wave crossed 3 pipeline registers.
  EXPECT_EQ(p.ctrl_reg_transfers(), 3u);
}

TEST(OneHot, DecodeEncodeRoundTrip) {
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(encode_from_one_hot(decode_one_hot(a, 16)), a);
  }
}

TEST(OneHotDeath, NotOneHot) {
  std::vector<bool> lines(8, false);
  lines[2] = lines[5] = true;
  EXPECT_DEATH(encode_from_one_hot(lines), "one-hot");
}

class AddressPathTest : public ::testing::TestWithParam<AddrPathMode> {};

TEST_P(AddressPathTest, FollowsWaveDownTheStages) {
  const unsigned kStages = 6;
  AddressPath ap(kStages, 32, GetParam());
  CtrlPipeline cp(kStages);

  StageCtrl c;
  c.op = StageOp::kWrite;
  c.addr = 17;
  cp.initiate(c);
  for (unsigned cycle = 0; cycle < kStages; ++cycle) {
    for (unsigned s = 0; s < kStages; ++s) {
      const StageCtrl& sc = cp.at(s);
      const long a = ap.active_addr(s, sc.addr, !sc.idle());
      if (s == cycle)
        EXPECT_EQ(a, 17) << "stage " << s << " cycle " << cycle;
      else
        EXPECT_EQ(a, -1) << "stage " << s << " cycle " << cycle;
    }
    cp.tick();
    ap.tick();
  }
}

TEST_P(AddressPathTest, BackToBackWaves) {
  const unsigned kStages = 4;
  AddressPath ap(kStages, 8, GetParam());
  CtrlPipeline cp(kStages);
  // Initiate a wave every cycle with a different address; every stage must
  // track its own wave's address.
  for (unsigned cycle = 0; cycle < 10; ++cycle) {
    StageCtrl c;
    c.op = StageOp::kRead;
    c.addr = cycle % 8;
    cp.initiate(c);
    for (unsigned s = 0; s < kStages; ++s) {
      const StageCtrl& sc = cp.at(s);
      const long a = ap.active_addr(s, sc.addr, !sc.idle());
      if (cycle >= s) {
        EXPECT_EQ(a, static_cast<long>((cycle - s) % 8));
      }
    }
    cp.tick();
    ap.tick();
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, AddressPathTest,
                         ::testing::Values(AddrPathMode::kPerStageDecoders,
                                           AddrPathMode::kDecodedPipeline));

TEST(AddressPathDeath, DecodeIntoOccupiedStagingRegister) {
  // A second decode before the clock edge would need a second line in the
  // staging register.
  AddressPath ap(4, 130, AddrPathMode::kDecodedPipeline);
  EXPECT_EQ(ap.active_addr(0, 70, true), 70);
  EXPECT_DEATH(ap.active_addr(0, 3, true), "still holds a line");
}

TEST(AddressPathDeath, RegisterHoldingTwoLines) {
  AddressPath ap(4, 130, AddrPathMode::kDecodedPipeline);
  ap.active_addr(0, 70, true);
  ap.tick();
  AddressPathPeer::add_line(ap, 1, 71);
  EXPECT_DEATH(ap.active_addr(1, 70, true), "not one-hot");
  EXPECT_DEATH(ap.audit(), "not one-hot");
}

TEST(AddressPath, DecodeOpCounts) {
  // Figure 7(a) pays one decode per stage per wave; figure 7(b) decodes once
  // and pays register transfers instead.
  const unsigned kStages = 8;
  auto run = [&](AddrPathMode mode) {
    AddressPath ap(kStages, 16, mode);
    CtrlPipeline cp(kStages);
    for (unsigned cycle = 0; cycle < 20; ++cycle) {
      if (cycle < 10) {
        StageCtrl c;
        c.op = StageOp::kWrite;
        c.addr = cycle % 16;
        cp.initiate(c);
      }
      for (unsigned s = 0; s < kStages; ++s) {
        const StageCtrl& sc = cp.at(s);
        ap.active_addr(s, sc.addr, !sc.idle());
      }
      cp.tick();
      ap.tick();
    }
    return std::pair{ap.decode_ops(), ap.one_hot_reg_transfers()};
  };
  const auto [dec_a, xfer_a] = run(AddrPathMode::kPerStageDecoders);
  const auto [dec_b, xfer_b] = run(AddrPathMode::kDecodedPipeline);
  EXPECT_EQ(dec_a, 10u * kStages);  // 10 waves x 8 stages.
  EXPECT_EQ(xfer_a, 0u);
  EXPECT_EQ(dec_b, 10u);            // One decode per wave.
  EXPECT_EQ(xfer_b, 10u * (kStages - 1));
}

// The ring-buffer CtrlPipeline and AddressPath keep running counts instead of
// walking their stages, and CtrlPipeline lists its waves in flight. Check
// every observable, the in-flight walk included, against a plain
// shift-register model -- S registers, copied one stage right on every edge, counted by a
// full scan -- under random initiation patterns: back-to-back waves, idle
// gaps, explicitly idle initiations, and every cycle in between.
struct ShiftRegisterModel {
  explicit ShiftRegisterModel(unsigned stages) : regs(stages) {}

  bool busy() const {
    for (const auto& r : regs)
      if (!r.idle()) return true;
    return false;
  }
  void tick(bool decoded_pipeline) {
    // Stages 0..S-2 forward into a register; stage S-1 retires.
    for (unsigned s = 0; s + 1 < regs.size(); ++s) {
      if (regs[s].idle()) continue;
      ++ctrl_transfers;
      if (decoded_pipeline) ++one_hot_transfers;
    }
    for (unsigned s = static_cast<unsigned>(regs.size()); s-- > 1;) regs[s] = regs[s - 1];
    regs[0] = StageCtrl{};
  }

  std::vector<StageCtrl> regs;  ///< regs[s]: control entering stage s.
  std::uint64_t ctrl_transfers = 0;
  std::uint64_t one_hot_transfers = 0;
  std::uint64_t decode_ops = 0;
};

class PipelineVsShiftModel
    : public ::testing::TestWithParam<std::tuple<unsigned, AddrPathMode>> {};

TEST_P(PipelineVsShiftModel, CountsAndBusyMatchEveryCycle) {
  const auto [stages, mode] = GetParam();
  const std::size_t kWords = 130;  // Three 64-line blocks, the last partial.
  CtrlPipeline cp(stages);
  AddressPath ap(stages, kWords, mode);
  ShiftRegisterModel ref(stages);
  const bool decoded = mode == AddrPathMode::kDecodedPipeline;

  std::mt19937 rng(stages * 7919u + static_cast<unsigned>(mode));
  // Phases of random length: saturating (a wave every cycle), silent (idle
  // gap), or a coin flip per cycle.
  double p_wave = 0.5;
  unsigned phase_left = 0;
  unsigned busy_cycles = 0;
  for (unsigned cycle = 0; cycle < 4000; ++cycle) {
    if (phase_left == 0) {
      const double kRates[] = {1.0, 0.0, 0.5, 0.2};
      p_wave = kRates[rng() % 4];
      phase_left = 1 + rng() % (3 * stages + 4);
    }
    --phase_left;

    if (std::uniform_real_distribution<double>(0, 1)(rng) < p_wave) {
      StageCtrl c;
      const StageOp kOps[] = {StageOp::kWrite, StageOp::kRead, StageOp::kWriteSnoop};
      c.op = kOps[rng() % 3];
      c.addr = static_cast<std::uint32_t>(rng() % kWords);
      c.in_link = static_cast<std::uint16_t>(rng() % 16);
      c.out_link = static_cast<std::uint16_t>(rng() % 16);
      c.head = (rng() & 1) != 0;
      cp.initiate(c);
      ref.regs[0] = c;
    } else if (rng() % 8 == 0) {
      cp.initiate(StageCtrl{});  // An explicitly idle stage-0 slot.
    }

    ASSERT_EQ(cp.busy(), ref.busy()) << "cycle " << cycle;
    if (ref.busy()) ++busy_cycles;
    // The in-flight walk visits exactly the non-idle stages, ascending.
    std::vector<unsigned> walked;
    cp.for_each_active([&](unsigned s, const StageCtrl& c) {
      EXPECT_EQ(&c, &cp.at(s));
      walked.push_back(s);
    });
    std::vector<unsigned> want_walk;
    for (unsigned s = 0; s < stages; ++s)
      if (!ref.regs[s].idle()) want_walk.push_back(s);
    ASSERT_EQ(walked, want_walk) << "cycle " << cycle;
    ASSERT_EQ(cp.active(), want_walk.size());
    cp.audit();
    for (unsigned s = 0; s < stages; ++s) {
      const StageCtrl& got = cp.at(s);
      const StageCtrl& want = ref.regs[s];
      ASSERT_EQ(got.op, want.op) << "stage " << s << " cycle " << cycle;
      if (!want.idle()) {
        ASSERT_EQ(got.addr, want.addr) << "stage " << s << " cycle " << cycle;
        ASSERT_EQ(got.in_link, want.in_link);
        ASSERT_EQ(got.out_link, want.out_link);
        ASSERT_EQ(got.head, want.head);
        if (!decoded || s == 0) ++ref.decode_ops;
      }
      const long a = ap.active_addr(s, got.addr, !got.idle());
      ASSERT_EQ(a, want.idle() ? -1L : static_cast<long>(want.addr))
          << "stage " << s << " cycle " << cycle;
    }
    cp.tick();
    ap.tick();
    ref.tick(decoded);
    ASSERT_EQ(cp.ctrl_reg_transfers(), ref.ctrl_transfers) << "cycle " << cycle;
    ASSERT_EQ(ap.one_hot_reg_transfers(), ref.one_hot_transfers) << "cycle " << cycle;
    ASSERT_EQ(ap.decode_ops(), ref.decode_ops) << "cycle " << cycle;
  }
  // The run must have seen both a busy and a drained pipeline.
  EXPECT_GT(busy_cycles, 0u);
  EXPECT_LT(busy_cycles, 4000u);
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndModes, PipelineVsShiftModel,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 32u, 80u),
                       ::testing::Values(AddrPathMode::kPerStageDecoders,
                                         AddrPathMode::kDecodedPipeline)),
    [](const auto& param_info) {
      const bool decoded = std::get<1>(param_info.param) == AddrPathMode::kDecodedPipeline;
      return std::string("S") + std::to_string(std::get<0>(param_info.param)) +
             (decoded ? "_DecodedPipeline" : "_PerStageDecoders");
    });

}  // namespace
}  // namespace pmsb
