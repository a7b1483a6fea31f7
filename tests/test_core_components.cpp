// Unit tests: free list, output queues, input latches and their write
// window, output row, reservation table, round-robin arbiter.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/arbiter.hpp"
#include "core/free_list.hpp"
#include "core/input_latches.hpp"
#include "core/latch_window.hpp"
#include "core/out_queues.hpp"
#include "core/output_row.hpp"
#include "core/reservation.hpp"
#include "sim/wire.hpp"

namespace pmsb {
namespace {

// --- FreeList ---------------------------------------------------------------

TEST(FreeList, AllocatesAllAddressesOnce) {
  FreeList fl(8);
  auto got = fl.alloc(8);
  std::sort(got.begin(), got.end());
  for (std::uint32_t a = 0; a < 8; ++a) EXPECT_EQ(got[a], a);
  EXPECT_FALSE(fl.can_alloc(1));
}

TEST(FreeList, ReleasedVisibleNextCycleOnly) {
  FreeList fl(2);
  auto got = fl.alloc(2);
  fl.release(got[0]);
  EXPECT_FALSE(fl.can_alloc(1));  // Not yet clocked back.
  fl.tick();
  EXPECT_TRUE(fl.can_alloc(1));
}

TEST(FreeList, InUseAccounting) {
  FreeList fl(4);
  EXPECT_EQ(fl.in_use(), 0u);
  auto got = fl.alloc(3);
  EXPECT_EQ(fl.in_use(), 3u);
  fl.release(got[1]);
  // The staged release still occupies its address until tick() publishes it
  // (the data is live while the read wave drains), so occupancy is unchanged
  // this cycle.
  EXPECT_EQ(fl.in_use(), 3u);
  fl.tick();
  EXPECT_EQ(fl.in_use(), 2u);
  EXPECT_EQ(fl.peak_in_use(), 3u);
}

TEST(FreeList, PeakCountsStagedReleases) {
  // Regression: peak_in_use() must see same-cycle staged releases as
  // occupied. Allocate 2, release one, allocate another in the same cycle:
  // three addresses hold live data simultaneously, so the peak is 3.
  FreeList fl(4);
  auto got = fl.alloc(2);
  fl.release(got[0]);
  fl.alloc(1);
  EXPECT_EQ(fl.in_use(), 3u);
  EXPECT_EQ(fl.peak_in_use(), 3u);
  fl.tick();
  EXPECT_EQ(fl.in_use(), 2u);
  EXPECT_EQ(fl.peak_in_use(), 3u);
}

TEST(FreeListDeath, DoubleFree) {
  FreeList fl(4);
  auto got = fl.alloc(1);
  fl.release(got[0]);
  EXPECT_DEATH(fl.release(got[0]), "double free");
}

TEST(FreeListDeath, Underflow) {
  FreeList fl(1);
  fl.alloc(1);
  EXPECT_DEATH(fl.alloc(1), "underflow");
}

TEST(FreeList, RecycleStress) {
  FreeList fl(4);
  for (int round = 0; round < 100; ++round) {
    auto got = fl.alloc(4);
    for (auto a : got) fl.release(a);
    fl.tick();
  }
  EXPECT_EQ(fl.available(), 4u);
  EXPECT_EQ(fl.in_use(), 0u);
}

// --- OutQueues ---------------------------------------------------------------

BufferedCell make_cell(unsigned input, Cycle a0) {
  return BufferedCell{input, a0, a0 + 1, {0}};
}

TEST(OutQueues, PushVisibleAfterTick) {
  OutQueues<BufferedCell> q(4);
  q.push(2, make_cell(0, 10));
  EXPECT_TRUE(q.empty(2));
  EXPECT_EQ(q.size(2), 0u);
  EXPECT_EQ(q.total_size(), 0u);
  EXPECT_FALSE(q.idle());  // Staged, so not idle.
  // This cycle's pushes are visible only through the staged view.
  ASSERT_EQ(q.staged().size(), 1u);
  EXPECT_EQ(q.staged()[0].queue, 2u);
  EXPECT_EQ(q.staged()[0].entry.head_arrival, 10);
  q.tick();
  EXPECT_TRUE(q.staged().empty());
  EXPECT_FALSE(q.empty(2));
  EXPECT_EQ(q.front(2).head_arrival, 10);
}

TEST(OutQueues, FifoPerOutput) {
  OutQueues<BufferedCell> q(4);
  q.push(1, make_cell(0, 10));
  q.push(1, make_cell(1, 11));
  q.tick();
  EXPECT_EQ(q.pop(1).head_arrival, 10);
  EXPECT_EQ(q.pop(1).head_arrival, 11);
  EXPECT_TRUE(q.empty(1));
  EXPECT_TRUE(q.idle());
}

TEST(OutQueues, IndependentOutputs) {
  OutQueues<BufferedCell> q(3);
  q.push(0, make_cell(0, 1));
  q.push(2, make_cell(0, 2));
  q.tick();
  EXPECT_FALSE(q.empty(0));
  EXPECT_TRUE(q.empty(1));
  EXPECT_FALSE(q.empty(2));
  EXPECT_EQ(q.total_size(), 2u);
  q.pop(0);
  EXPECT_EQ(q.total_size(), 1u);
  EXPECT_EQ(q.peak_total_size(), 2u);
}

// A second entry type (owning its words, as a crosspoint buffer's cells do)
// under n^2 keys, input * n + output, the crosspoint-queued switch's layout.
TEST(OutQueues, CrosspointKeysWithOwningEntries) {
  constexpr unsigned n = 3;
  struct Entry {
    std::vector<Word> words;
    unsigned input;
  };
  OutQueues<Entry> q(n * n);
  for (unsigned i = 0; i < n; ++i)
    for (unsigned o = 0; o < n; ++o) q.push(i * n + o, Entry{std::vector<Word>(4, i * 10 + o), i});
  EXPECT_EQ(q.staged().size(), n * n);
  EXPECT_EQ(q.total_size(), 0u);
  q.tick();
  EXPECT_EQ(q.total_size(), n * n);
  q.push(2 * n + 1, Entry{{7}, 2});
  EXPECT_EQ(q.size(2 * n + 1), 1u);  // The second entry is still staged.
  q.tick();
  EXPECT_EQ(q.size(2 * n + 1), 2u);

  std::vector<unsigned> keys;
  q.for_each([&](unsigned k, const Entry& e) {
    keys.push_back(k);
    EXPECT_EQ(e.input, k / n);
  });
  EXPECT_EQ(keys, (std::vector<unsigned>{0, 1, 2, 3, 4, 5, 6, 7, 7, 8}));

  EXPECT_EQ(q.pop(2 * n + 1).words, std::vector<Word>(4, 21));
  EXPECT_EQ(q.front(2 * n + 1).words, std::vector<Word>{7});
  EXPECT_EQ(q.total_size(), n * n);
  EXPECT_EQ(q.peak_total_size(), n * n + 1);
}

TEST(OutQueuesDeath, PopEmpty) {
  OutQueues<BufferedCell> q(2);
  EXPECT_DEATH(q.pop(0), "empty");
}

TEST(OutQueuesDeath, PushBeyondLastQueue) {
  OutQueues<BufferedCell> q(2);
  EXPECT_DEATH(q.push(2, make_cell(0, 0)), "out of range");
}

// --- InputLatches ------------------------------------------------------------

TEST(InputLatches, LatchHoldsTheLoadedWord) {
  // The latches carry no clock edge: a load is readable at once, and the
  // switches read every latch of cycle t before they load any.
  InputLatches ir(2, 4, 8);
  EXPECT_EQ(ir.read(1, 2), 0u);
  ir.latch(1, 2, 0xAA, 0);
  EXPECT_EQ(ir.read(1, 2), 0xAAu);
  EXPECT_EQ(ir.read(0, 2), 0u);
}

TEST(InputLatches, OverwriteAfterWavePassesIsFine) {
  InputLatches ir(1, 4, 8);
  ir.latch(0, 0, 0x11, 0);
  ir.protect_for_wave(0, 1, 0);  // Wave consumes IR[0][s] at cycle 1+s.
  // Overwrite latch 0 at cycle 4 (> 1): allowed.
  ir.latch(0, 0, 0x22, 4);
  EXPECT_EQ(ir.read(0, 0), 0x22u);
}

TEST(InputLatchesDeath, OverwriteBeforeWaveReads) {
  InputLatches ir(1, 4, 8);
  ir.latch(0, 3, 0x11, 0);
  ir.protect_for_wave(0, 5, 0);  // Stage 3 consumed at cycle 5+3 = 8.
  EXPECT_DEATH(ir.latch(0, 3, 0x22, 6), "no-double-buffering");
  EXPECT_DEATH(ir.latch(0, 3, 0x22, 7), "no-double-buffering");
}

TEST(InputLatches, BoundaryOverwriteExactlyAtConsumption) {
  // The paper's tightest case: the latch is overwritten at the end of the
  // very cycle the wave reads it.
  InputLatches ir(1, 4, 8);
  ir.latch(0, 2, 0x11, 0);
  ir.protect_for_wave(0, 3, 0);     // Stage 2 consumed during cycle 5.
  EXPECT_EQ(ir.read(0, 2), 0x11u);  // The wave reads the old value in 5 ...
  ir.latch(0, 2, 0x22, 5);          // ... before the cycle's load: legal.
  EXPECT_EQ(ir.read(0, 2), 0x22u);
}

TEST(InputLatches, CommitsEveryLatchLoadedInOneCycle) {
  // Several inputs and stages load in the same cycle: each holds its word,
  // and every latch not loaded keeps its value.
  InputLatches ir(3, 4, 8);
  ir.latch(0, 1, 0x01, 0);
  ir.latch(1, 3, 0x13, 0);
  ir.latch(2, 0, 0x20, 0);
  ir.latch(0, 2, 0x02, 0);
  const auto expect_row = [&](unsigned i, std::vector<Word> want) {
    for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(ir.read(i, s), want[s]) << i << "," << s;
  };
  expect_row(0, {0, 0x01, 0x02, 0});
  expect_row(1, {0, 0, 0, 0x13});
  expect_row(2, {0x20, 0, 0, 0});

  // A later load changes only its own latch; the same latch may load again
  // in the next cycle.
  ir.latch(1, 3, 0x33, 50);
  ir.latch(1, 3, 0x34, 51);
  ir.latch(2, 1, 0x21, 51);
  expect_row(0, {0, 0x01, 0x02, 0});
  expect_row(1, {0, 0, 0, 0x34});
  expect_row(2, {0x20, 0x21, 0, 0});
}

TEST(InputLatchesDeath, LoadedTwiceInOneCycle) {
  // The stamp of the last load stands in for a staged flag: a second load
  // in the same cycle aborts, whether or not cycles passed before it.
  InputLatches ir(2, 4, 8);
  ir.latch(1, 2, 0x11, 0);
  EXPECT_DEATH(ir.latch(1, 2, 0x22, 0), "loaded twice in one cycle");
  ir.latch(1, 2, 0x33, 9);
  EXPECT_DEATH(ir.latch(1, 2, 0x44, 9), "loaded twice in one cycle");
}

// --- LatchWindow -------------------------------------------------------------

TEST(LatchWindow, ExpiresAtTheDeadlineWithItsLossClass) {
  // Two inputs, S = 4: heads at cycle 0 stay pending through [1, 4].
  LatchWindow w(2, 4, 8);
  SwitchStats st;
  EventHub ev;
  std::vector<std::pair<unsigned, DropReason>> dropped;
  const auto on_drop = [&](unsigned i, DropReason why) { dropped.emplace_back(i, why); };
  EXPECT_FALSE(w.latch(0, RxWord::kIdle, 0, 0));
  ASSERT_TRUE(w.latch(0, RxWord::kHead, 0x11, 0));
  ASSERT_TRUE(w.latch(1, RxWord::kHead, 0x22, 0));
  w.open(0, 0, 1);
  w.open(1, 0, 0);
  EXPECT_EQ(w.pending_cells(), 2u);
  EXPECT_EQ(w.pending(0).dest, 1u);
  w.starve();  // The buffer was full at some cycle of both windows ...
  w.close(1);  // ... but input 1 was granted.
  for (Cycle t = 1; t < 4; ++t) {
    w.expire(t, st, ev, on_drop);
    EXPECT_EQ(w.pending_cells(), 1u);
  }
  w.expire(4, st, ev, on_drop);  // The last cycle of input 0's window.
  EXPECT_EQ(w.pending_cells(), 0u);
  EXPECT_EQ(dropped, (std::vector<std::pair<unsigned, DropReason>>{{0, DropReason::kNoAddress}}));
  EXPECT_EQ(st.dropped_no_addr, 1u);
  EXPECT_EQ(st.dropped_no_slot, 0u);

  // Never starved: a missed window is a slot miss.
  ASSERT_TRUE(w.latch(0, RxWord::kHead, 0x33, 5));
  w.open(0, 5, 1);
  w.expire(9, st, ev, on_drop);
  EXPECT_EQ(dropped.back(), std::make_pair(0u, DropReason::kNoSlot));
  EXPECT_EQ(st.dropped_no_slot, 1u);
}

TEST(LatchWindowDeath, HeadWhileTheLastCellIsPending) {
  LatchWindow w(1, 4, 8);
  ASSERT_TRUE(w.latch(0, RxWord::kHead, 0x11, 0));
  w.open(0, 0, 0);
  EXPECT_DEATH(w.latch(0, RxWord::kHead, 0x22, 1), "previous cell is unresolved");
}

// --- OutputRow ---------------------------------------------------------------

TEST(OutputRow, DrivesLinkNextCycle) {
  OutputRow row(4, 2, 8);
  std::vector<WireLink> links(2);
  row.load(0, 0x5A, 1, true);
  row.drive_links(links, 0);
  EXPECT_FALSE(links[1].now(0).valid);
  EXPECT_FALSE(links[0].now(1).valid);
  EXPECT_TRUE(links[1].now(1).valid);
  EXPECT_TRUE(links[1].now(1).sop);
  EXPECT_EQ(links[1].now(1).data, 0x5Au);
}

TEST(OutputRowDeath, DoubleLoadOneStage) {
  OutputRow row(4, 2, 8);
  row.load(1, 1, 0, false);
  EXPECT_DEATH(row.load(1, 2, 1, false), "twice");
}

TEST(OutputRowDeath, TwoStagesOneLink) {
  OutputRow row(4, 2, 8);
  std::vector<WireLink> links(2);
  row.load(0, 1, 1, false);
  row.load(1, 2, 1, false);
  EXPECT_DEATH(row.drive_links(links, 0), "two drivers");
}

TEST(OutputRow, ClearsAfterTick) {
  OutputRow row(4, 2, 8);
  std::vector<WireLink> links(2);
  row.load(2, 9, 0, false);
  row.drive_links(links, 0);
  row.tick();
  row.load(2, 10, 0, false);  // Same stage reusable next cycle.
  row.drive_links(links, 1);
  EXPECT_EQ(links[0].now(1).data, 9u);
  EXPECT_EQ(links[0].now(2).data, 10u);
}

// --- ReservationTable --------------------------------------------------------

TEST(Reservation, FreeUntilReserved) {
  ReservationTable rt(32);
  EXPECT_TRUE(rt.slot_free(5));
  rt.reserve_writes(5, 4, {7}, 1, 4);
  EXPECT_FALSE(rt.slot_free(5));
  EXPECT_TRUE(rt.slot_free(6));
}

TEST(Reservation, ProgressionReservesEverySegment) {
  ReservationTable rt(64);
  rt.reserve_writes(10, 8, {1, 2, 3}, 0, 9);
  EXPECT_FALSE(rt.slot_free(10));
  EXPECT_FALSE(rt.slot_free(18));
  EXPECT_FALSE(rt.slot_free(26));
  EXPECT_TRUE(rt.slot_free(34));
  EXPECT_FALSE(rt.progression_free(10, 8, 1));
  EXPECT_TRUE(rt.progression_free(11, 8, 3));
}

TEST(Reservation, TakeReturnsAndClears) {
  ReservationTable rt(32);
  rt.reserve_writes(3, 4, {9}, 2, 2);
  const SlotOp op = rt.take(3);
  EXPECT_TRUE(op.has_write);
  EXPECT_EQ(op.w_addr, 9u);
  EXPECT_EQ(op.in_link, 2);
  EXPECT_TRUE(op.w_head);
  EXPECT_TRUE(rt.slot_free(3));
  EXPECT_TRUE(rt.take(3).empty());
}

TEST(Reservation, HeadFlagOnlyOnFirstSegment) {
  ReservationTable rt(64);
  rt.reserve_reads(0, 8, {4, 5}, 1);
  EXPECT_TRUE(rt.take(0).r_head);
  EXPECT_FALSE(rt.take(8).r_head);
}

TEST(Reservation, SnoopAttachesToWrite) {
  ReservationTable rt(32);
  rt.reserve_writes(2, 4, {6}, 0, 1);
  rt.attach_snoop_reads(2, 4, {6}, 3);
  const SlotOp op = rt.take(2);
  EXPECT_TRUE(op.has_write);
  EXPECT_TRUE(op.has_read);
  EXPECT_EQ(op.w_addr, op.r_addr);
  EXPECT_EQ(op.out_link, 3);
}

TEST(ReservationDeath, SnoopNeedsMatchingWrite) {
  ReservationTable rt(32);
  rt.reserve_writes(2, 4, {6}, 0, 1);
  EXPECT_DEATH(rt.attach_snoop_reads(2, 4, {7}, 3), "address");
}

TEST(ReservationDeath, DoubleReserve) {
  ReservationTable rt(32);
  rt.reserve_reads(4, 4, {1}, 0);
  EXPECT_DEATH(rt.reserve_writes(4, 4, {2}, 1, 3), "occupied");
}

TEST(Reservation, RingReuseAfterTake) {
  ReservationTable rt(8);
  for (Cycle t = 0; t < 100; ++t) {
    rt.reserve_reads(t, 1, {static_cast<std::uint32_t>(t % 4)}, 0);
    const SlotOp op = rt.take(t);
    EXPECT_TRUE(op.has_read);
  }
}

// --- RoundRobin --------------------------------------------------------------

TEST(RoundRobin, CyclesThroughEligible) {
  RoundRobin rr(4);
  auto all = [](unsigned) { return true; };
  EXPECT_EQ(rr.pick(all), 0);
  EXPECT_EQ(rr.pick(all), 1);
  EXPECT_EQ(rr.pick(all), 2);
  EXPECT_EQ(rr.pick(all), 3);
  EXPECT_EQ(rr.pick(all), 0);
}

TEST(RoundRobin, SkipsIneligible) {
  RoundRobin rr(4);
  auto odd = [](unsigned i) { return i % 2 == 1; };
  EXPECT_EQ(rr.pick(odd), 1);
  EXPECT_EQ(rr.pick(odd), 3);
  EXPECT_EQ(rr.pick(odd), 1);
}

TEST(RoundRobin, NoneEligible) {
  RoundRobin rr(3);
  EXPECT_EQ(rr.pick([](unsigned) { return false; }), -1);
}

TEST(RoundRobin, StarvationBound) {
  // While index 0 stays continuously eligible, every other index is granted
  // at most once before 0 is granted (DESIGN.md invariant-2 dependency).
  RoundRobin rr(8);
  // Move the pointer just past 0.
  ASSERT_EQ(rr.pick([](unsigned i) { return i == 0; }), 0);
  std::vector<int> grants_before_zero;
  for (int k = 0; k < 16; ++k) {
    const int g = rr.pick([](unsigned) { return true; });
    if (g == 0) break;
    grants_before_zero.push_back(g);
  }
  EXPECT_LE(grants_before_zero.size(), 7u);
  std::sort(grants_before_zero.begin(), grants_before_zero.end());
  EXPECT_TRUE(std::adjacent_find(grants_before_zero.begin(), grants_before_zero.end()) ==
              grants_before_zero.end());
}

// --- WireLink ----------------------------------------------------------------

TEST(WireLink, UndrivenCycleIsInvalid) {
  WireLink l;
  l.drive_next(0, Flit{true, true, 5});
  EXPECT_TRUE(l.now(1).valid);
  EXPECT_FALSE(l.now(2).valid);
  l.drive_next(2, Flit{true, true, 6});  // Cycle 2 undriven, cycle 3 driven.
  EXPECT_FALSE(l.now(2).valid);
  EXPECT_EQ(l.now(3).data, 6u);
}

TEST(WireLinkDeath, TwoDrivers) {
  // The stamp of the slot being driven is the driver check: a second drive
  // for the same cycle aborts, while the other slot is free.
  WireLink l;
  l.drive_next(0, Flit{true, false, 1});
  EXPECT_DEATH(l.drive_next(0, Flit{true, false, 2}), "two drivers");
  l.drive_next(1, Flit{true, false, 3});
  l.drive_next(4, Flit{true, false, 4});
  EXPECT_DEATH(l.drive_next(4, Flit{true, false, 5}), "two drivers");
}

}  // namespace
}  // namespace pmsb
