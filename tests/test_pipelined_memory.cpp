// Direct RTL-level tests of PipelinedMemory: wave propagation through the
// banks, write/read/snoop operations, and the exact cycle each bank is
// touched -- the figure 4/5 mechanics in isolation (no arbiter, no links).

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/input_latches.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"
#include "sim/wire.hpp"

namespace pmsb {

// Test access to the running state that checked mode recounts.
struct CtrlPipelinePeer {
  static void forget_newest_wave(CtrlPipeline& p) { --p.active_; }
};
struct PipelinedMemoryPeer {
  static CtrlPipeline& ctrl(PipelinedMemory& m) { return m.ctrl_; }
  static void touch_bank(PipelinedMemory& m, unsigned s) { (void)m.banks_[s].read(0); }
};
struct OutputRowPeer {
  static void phantom_load(OutputRow& r) { r.loaded_[r.n_loaded_++] = 0; }
};

namespace {

constexpr unsigned kStages = 4;
constexpr unsigned kWords = 8;
constexpr unsigned kWbits = 8;

struct Rig {
  PipelinedMemory mem{kStages, kWords, kWbits};
  InputLatches ir{2, kStages, kWbits};
  OutputRow orow{kStages, 2, kWbits};
  std::vector<WireLink> outs{2};
  Cycle t = 0;

  void cycle(const StageCtrl* initiate = nullptr) {
    if (initiate) mem.initiate(*initiate);
    mem.exec_cycle(ir, orow);
    orow.drive_links(outs);
    ir.tick(t);
    mem.tick();
    orow.tick();
    for (auto& l : outs) l.tick();
    ++t;
  }

  /// Preload IR[input][s] = base + s (committed).
  void preload(unsigned input, Word base) {
    for (unsigned s = 0; s < kStages; ++s) ir.latch(input, s, base + s, t);
    ir.tick(t);
  }
};

StageCtrl write_ctrl(std::uint32_t addr, unsigned in) {
  StageCtrl c;
  c.op = StageOp::kWrite;
  c.addr = addr;
  c.in_link = static_cast<std::uint16_t>(in);
  c.head = true;
  return c;
}

StageCtrl read_ctrl(std::uint32_t addr, unsigned out) {
  StageCtrl c;
  c.op = StageOp::kRead;
  c.addr = addr;
  c.out_link = static_cast<std::uint16_t>(out);
  c.head = true;
  return c;
}

TEST(PipelinedMemory, WriteWaveLandsOneBankPerCycle) {
  Rig rig;
  rig.preload(0, 0x10);
  const StageCtrl w = write_ctrl(3, 0);
  rig.cycle(&w);  // Stage 0 writes this cycle (commits at its end).
  EXPECT_EQ(rig.mem.bank(0).debug_peek(3), 0x10u);
  EXPECT_EQ(rig.mem.bank(1).debug_peek(3), 0u);  // Not yet.
  rig.cycle();
  EXPECT_EQ(rig.mem.bank(1).debug_peek(3), 0x11u);
  rig.cycle();
  rig.cycle();
  for (unsigned s = 0; s < kStages; ++s)
    EXPECT_EQ(rig.mem.bank(s).debug_peek(3), 0x10u + s) << "stage " << s;
  EXPECT_FALSE(rig.mem.busy());
}

TEST(PipelinedMemory, ReadWaveDrivesTheLinkWithOneCycleLag) {
  Rig rig;
  rig.preload(1, 0x20);
  const StageCtrl w = write_ctrl(5, 1);
  rig.cycle(&w);
  for (int k = 0; k < 3; ++k) rig.cycle();  // Finish the write wave.

  const StageCtrl r = read_ctrl(5, 1);
  rig.cycle(&r);  // Stage 0 read; OR[0] drives the wire for the next cycle,
                  // which rig.cycle() has already clocked in: outs.now() is
                  // the wire value one cycle after the stage-0 read.
  for (unsigned s = 0; s < kStages; ++s) {
    const Flit& f = rig.outs[1].now();
    ASSERT_TRUE(f.valid) << "word " << s;
    EXPECT_EQ(f.sop, s == 0);
    EXPECT_EQ(f.data, 0x20u + s);
    rig.cycle();
  }
  EXPECT_FALSE(rig.outs[1].now().valid);  // Exactly kStages words.
}

TEST(PipelinedMemory, SnoopForwardsWriteDataSameWave) {
  Rig rig;
  rig.preload(0, 0x30);
  StageCtrl c = write_ctrl(2, 0);
  c.op = StageOp::kWriteSnoop;
  c.out_link = 0;
  rig.cycle(&c);
  for (unsigned s = 0; s < kStages; ++s) {
    const Flit& f = rig.outs[0].now();
    ASSERT_TRUE(f.valid);
    EXPECT_EQ(f.sop, s == 0);
    EXPECT_EQ(f.data, 0x30u + s);
    // And the data also landed in the bank (it is a real write).
    EXPECT_EQ(rig.mem.bank(s).debug_peek(2), 0x30u + s);
    rig.cycle();
  }
}

TEST(PipelinedMemory, BackToBackWavesInterleaveWithoutConflicts) {
  // A write wave immediately followed by a read wave of another address:
  // each bank serves one wave per cycle (the single-port assert would abort
  // otherwise), one cycle apart.
  Rig rig;
  rig.preload(0, 0x40);
  // Seed address 7 with known data first.
  const StageCtrl w7 = write_ctrl(7, 0);
  rig.cycle(&w7);
  for (int k = 0; k < 3; ++k) rig.cycle();

  rig.preload(0, 0x50);
  const StageCtrl w1 = write_ctrl(1, 0);
  rig.cycle(&w1);
  const StageCtrl r7 = read_ctrl(7, 1);
  rig.cycle(&r7);  // One cycle behind the write wave: no bank conflicts.
  for (int k = 0; k < 5; ++k) rig.cycle();
  for (unsigned s = 0; s < kStages; ++s) {
    EXPECT_EQ(rig.mem.bank(s).debug_peek(1), 0x50u + s);
    EXPECT_EQ(rig.mem.bank(s).debug_peek(7), 0x40u + s);
  }
}

TEST(PipelinedMemoryDeath, TwoInitiationsOneCycle) {
  Rig rig;
  const StageCtrl a = write_ctrl(0, 0);
  const StageCtrl b = read_ctrl(1, 0);
  rig.mem.initiate(a);
  EXPECT_DEATH(rig.mem.initiate(b), "single-ported");
}

/// Runs a Rig under PMSB_CHECK=1 (set in this process before the memory is
/// built) with a write wave and a snooping wave in flight, applies
/// `corrupt`, runs one more cycle and exits 0.
template <class Corrupt>
void run_checked_memory(Corrupt&& corrupt) {
  setenv("PMSB_CHECK", "1", 1);
  Rig rig;
  rig.preload(0, 0x10);
  const StageCtrl w = write_ctrl(3, 0);
  rig.cycle(&w);
  StageCtrl snoop = write_ctrl(4, 0);
  snoop.op = StageOp::kWriteSnoop;
  snoop.out_link = 1;
  rig.cycle(&snoop);
  corrupt(rig);
  rig.cycle();
  std::exit(0);
}

/// Under PMSB_CHECK=1 the memory recounts its active stages and word lines
/// and checks that no bank escaped the sparse tick, and the output row
/// recounts its loaded registers: an honest run passes, a corrupted running
/// state aborts.
TEST(PipelinedMemoryDeath, CheckedModeRecountsRunningState) {
  EXPECT_EXIT(run_checked_memory([](Rig&) {}), testing::ExitedWithCode(0), "");
  EXPECT_DEATH(run_checked_memory([](Rig& r) {
                 CtrlPipelinePeer::forget_newest_wave(PipelinedMemoryPeer::ctrl(r.mem));
               }),
               "running count of active stages");
  EXPECT_DEATH(run_checked_memory([](Rig& r) { PipelinedMemoryPeer::touch_bank(r.mem, 3); }),
               "never ticked");
  EXPECT_DEATH(run_checked_memory([](Rig& r) { OutputRowPeer::phantom_load(r.orow); }),
               "loaded-register list");
}

/// Two memories over one output row and one latch array, executed in a
/// fixed order each cycle, as in DualPipelinedSwitch.
struct SharedRowRig {
  PipelinedMemory mem[2]{{kStages, kWords, kWbits}, {kStages, kWords, kWbits}};
  InputLatches ir{2, kStages, kWbits};
  OutputRow orow{kStages, 2, kWbits};
  std::vector<WireLink> outs{2};
  Cycle t = 0;

  void cycle(const StageCtrl* a = nullptr, const StageCtrl* b = nullptr) {
    if (a) mem[0].initiate(*a);
    if (b) mem[1].initiate(*b);
    mem[0].exec_cycle(ir, orow);
    mem[1].exec_cycle(ir, orow);
    orow.drive_links(outs);
    ir.tick(t);
    mem[0].tick();
    mem[1].tick();
    orow.tick();
    for (auto& l : outs) l.tick();
    ++t;
  }

  void preload(unsigned input, Word base) {
    for (unsigned s = 0; s < kStages; ++s) ir.latch(input, s, base + s, t);
    ir.tick(t);
  }
};

/// Memory `reader` reads a cell out to link 1 while the other memory runs a
/// write-only wave in lockstep, so in every cycle one memory loads OR[s]
/// and the other writes at the same stage s. The write must leave OR[s]
/// alone: returns true iff link 1 carries exactly the read words, link 0
/// stays silent, and the write landed.
bool shared_row_read_beside_write(unsigned reader) {
  SharedRowRig rig;
  const unsigned writer = 1 - reader;
  rig.preload(0, 0x10);
  const StageCtrl seed = write_ctrl(5, 0);
  if (reader == 0)
    rig.cycle(&seed);
  else
    rig.cycle(nullptr, &seed);
  for (unsigned k = 1; k < kStages; ++k) rig.cycle();

  rig.preload(1, 0x60);
  const StageCtrl r = read_ctrl(5, 1);
  const StageCtrl w = write_ctrl(2, 1);
  if (reader == 0)
    rig.cycle(&r, &w);
  else
    rig.cycle(&w, &r);
  bool ok = true;
  for (unsigned s = 0; s < kStages; ++s) {
    const Flit& f = rig.outs[1].now();
    ok = ok && f.valid && f.sop == (s == 0) && f.data == 0x10u + s;
    ok = ok && !rig.outs[0].now().valid;
    rig.cycle();
  }
  ok = ok && !rig.outs[1].now().valid;
  for (unsigned s = 0; s < kStages; ++s)
    ok = ok && rig.mem[writer].bank(s).debug_peek(2) == 0x60u + s;
  return ok;
}

TEST(PipelinedMemory, WriteStageLeavesSharedOutputRegisterAlone) {
  // reader 0: the read executes first; reader 1: the write does.
  for (unsigned reader = 0; reader < 2; ++reader) {
    EXPECT_TRUE(shared_row_read_beside_write(reader)) << "reader " << reader;
    // The same run under PMSB_CHECK=1: the memories' and the output row's
    // recounts pass every cycle.
    EXPECT_EXIT(
        {
          setenv("PMSB_CHECK", "1", 1);
          std::exit(shared_row_read_beside_write(reader) ? 0 : 1);
        },
        testing::ExitedWithCode(0), "")
        << "reader " << reader;
  }
}

TEST(PipelinedMemory, BusyWhileAnyWaveInFlight) {
  Rig rig;
  rig.preload(0, 0);
  const StageCtrl w = write_ctrl(0, 0);
  rig.cycle(&w);
  EXPECT_TRUE(rig.mem.busy());
  rig.cycle();
  rig.cycle();
  EXPECT_TRUE(rig.mem.busy());  // Still in the last stage's register.
  rig.cycle();
  EXPECT_FALSE(rig.mem.busy());
}

}  // namespace
}  // namespace pmsb
