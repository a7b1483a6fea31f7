// The link contract in one place (core/cell_port.hpp): CellRx frames one
// link's words into cells and makes the three framing checks, and every
// word-level receiver -- the six switch models and CellSink -- runs its
// links through it, so a framing violation aborts each of them the same way.
// CellTx sends a stored cell as a head plus L-1 body words with no gap.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "arch/cq/cq_switch.hpp"
#include "arch/prizma/prizma_switch.hpp"
#include "arch/wide/wide_switch.hpp"
#include "core/cell_port.hpp"
#include "core/dual_switch.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "traffic/generators.hpp"

namespace pmsb {
namespace {

constexpr CellFormat kFmt{16, 2, 4};

Flit head(unsigned dest) { return Flit{true, true, cell_word(7, dest, 0, kFmt)}; }
Flit body(unsigned k) { return Flit{true, false, cell_word(7, 0, k, kFmt)}; }

TEST(CellRx, FramesOneCellAndReportsItsHead) {
  CellRx rx(kFmt, 4);
  EXPECT_EQ(rx.take(Flit{}, 0), RxWord::kIdle);
  EXPECT_FALSE(rx.mid_cell());

  EXPECT_EQ(rx.take(head(3), 1), RxWord::kHead);
  EXPECT_EQ(rx.dest(), 3u);
  EXPECT_EQ(rx.a0(), 1);
  EXPECT_EQ(rx.phase(), 0u);
  EXPECT_TRUE(rx.mid_cell());
  EXPECT_FALSE(rx.ends_cell());
  for (unsigned k = 1; k < kFmt.length_words; ++k) {
    EXPECT_EQ(rx.take(body(k), 1 + k), RxWord::kBody);
    EXPECT_EQ(rx.phase(), k);
    EXPECT_EQ(rx.ends_cell(), k + 1 == kFmt.length_words);
  }
  EXPECT_FALSE(rx.mid_cell());
  EXPECT_EQ(rx.dest(), 3u);  // The last cell's head fields outlive its tail.
  EXPECT_EQ(rx.a0(), 1);

  // Back to back: the next head follows the tail directly.
  EXPECT_EQ(rx.take(head(1), 5), RxWord::kHead);
  EXPECT_EQ(rx.dest(), 1u);
  EXPECT_EQ(rx.a0(), 5);
}

TEST(CellRx, DefaultBoundAcceptsEveryDestination) {
  CellRx rx(kFmt);
  EXPECT_EQ(rx.take(head(3), 0), RxWord::kHead);
  EXPECT_EQ(rx.dest(), 3u);
}

TEST(CellRxDeath, BodyWordWithNoHead) {
  CellRx rx(kFmt, 4);
  EXPECT_DEATH(rx.take(body(1), 0), CellRx::kBodyWithoutHead);
}

TEST(CellRxDeath, HeadInsideCell) {
  CellRx rx(kFmt, 4);
  rx.take(head(0), 0);
  rx.take(body(1), 1);
  EXPECT_DEATH(rx.take(head(0), 2), CellRx::kHeadInsideCell);
}

TEST(CellRxDeath, GapInsideCell) {
  CellRx rx(kFmt, 4);
  rx.take(head(0), 0);
  EXPECT_DEATH(rx.take(Flit{}, 1), CellRx::kGapInsideCell);
}

TEST(CellRxDeath, DestinationOutOfRange) {
  CellRx rx(kFmt, 3);
  EXPECT_DEATH(rx.take(head(3), 0), "destination out of range");
}

// ---------------------------------------------------------------------------
// CellTx: the transmitter half of the contract.

TEST(CellTx, RoundTripThroughCellRx) {
  std::vector<Word> cell(kFmt.length_words);
  for (unsigned k = 0; k < kFmt.length_words; ++k) cell[k] = cell_word(9, 2, k, kFmt);
  CellTx tx(kFmt.length_words);
  CellRx rx(kFmt, 4);
  WireLink wire;
  EXPECT_FALSE(tx.busy());
  tx.start(cell.data());
  // Two cells back to back: the second starts the cycle after the first's
  // last word, with no gap on the wire.
  for (Cycle t = 0; t < 2 * static_cast<Cycle>(kFmt.length_words); ++t) {
    const unsigned k = static_cast<unsigned>(t) % kFmt.length_words;
    if (!tx.busy()) tx.start(cell.data());
    ASSERT_TRUE(tx.busy());
    EXPECT_EQ(tx.phase(), k);
    EXPECT_EQ(tx.drive(wire, t), k + 1 == kFmt.length_words);
    EXPECT_EQ(tx.busy(), k + 1 != kFmt.length_words);
    const Flit& f = wire.now(t + 1);
    EXPECT_TRUE(f.valid);
    EXPECT_EQ(f.sop, k == 0);
    EXPECT_EQ(f.data, cell[k]);
    EXPECT_EQ(rx.take(f, t), k == 0 ? RxWord::kHead : RxWord::kBody);
    EXPECT_EQ(rx.phase(), k);
    EXPECT_EQ(rx.ends_cell(), k + 1 == kFmt.length_words);
  }
  EXPECT_EQ(rx.dest(), 2u);
  EXPECT_EQ(rx.a0(), static_cast<Cycle>(kFmt.length_words));
}

TEST(CellTx, ReadsEachWordWhenItIsDriven) {
  // Cut-through: the words behind the transmitter may still be arriving.
  std::vector<Word> cell(kFmt.length_words, 0);
  CellTx tx(kFmt.length_words);
  WireLink wire;
  tx.start(cell.data());
  for (unsigned k = 0; k < kFmt.length_words; ++k) {
    cell[k] = 100 + k;
    tx.drive(wire, k);
    EXPECT_EQ(wire.now(k + 1).data, 100u + k);
  }
}

TEST(CellTxDeath, StartWhileBusy) {
  std::vector<Word> cell(kFmt.length_words);
  CellTx tx(kFmt.length_words);
  WireLink wire;
  tx.start(cell.data());
  tx.drive(wire, 0);
  EXPECT_DEATH(tx.start(cell.data()), CellTx::kStartWhileBusy);
}

// ---------------------------------------------------------------------------
// Every word-level receiver aborts on a mid-cell gap.

/// A 2-port instance of each switch model.
template <typename SwitchT>
auto small_config() {
  if constexpr (std::is_same_v<SwitchT, DualPipelinedSwitch>) {
    DualSwitchConfig c;
    c.n_ports = 2;
    return c;
  } else if constexpr (std::is_same_v<SwitchT, PrizmaSwitch>) {
    PrizmaConfig c;
    c.n_ports = 2;
    c.cell_words = 4;
    return c;
  } else {
    return SwitchConfig::for_ports(2);
  }
}

/// The receiver under test, its input link and an engine that clocks it.
template <typename T>
struct Rig {
  T dut{small_config<T>()};
  Engine eng;
  Rig() { eng.add(&dut); }
  WireLink& link() { return dut.in_link(0); }
};

template <>
struct Rig<CellSink> {
  WireLink wire;
  CellSink dut{0, &wire, kFmt};
  Engine eng;
  Rig() { eng.add(&dut); }
  WireLink& link() { return wire; }
};

template <typename T>
class MidCellGap : public ::testing::Test {};

struct ReceiverName {
  template <typename T>
  static std::string GetName(int) { return Rig<T>().dut.name(); }
};

using Receivers = ::testing::Types<PipelinedSwitch, DualPipelinedSwitch, FastSwitch,
                                   WideMemorySwitch, PrizmaSwitch, CrosspointQueuedSwitch,
                                   CellSink>;
TYPED_TEST_SUITE(MidCellGap, Receivers, ReceiverName);

TYPED_TEST(MidCellGap, Aborts) {
  EXPECT_DEATH(
      {
        Rig<TypeParam> rig;
        rig.link().drive_next(0, Flit{true, true, 0});  // A head for output 0 ...
        rig.eng.step();  // ... driven during cycle 0,
        rig.eng.step();  // on the wire and taken in cycle 1; nothing follows:
        rig.eng.step();  // the gap.
      },
      CellRx::kGapInsideCell);
}

}  // namespace
}  // namespace pmsb
