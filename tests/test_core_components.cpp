// Unit tests: free list, output queues, input latches, output row,
// reservation table, round-robin arbiter.

#include <gtest/gtest.h>

#include <vector>

#include "core/arbiter.hpp"
#include "core/free_list.hpp"
#include "core/input_latches.hpp"
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

BufferedCell make_cell(unsigned input, unsigned dest, Cycle a0) {
  return BufferedCell{input, dest, a0, a0 + 1, {0}};
}

TEST(OutQueues, PushVisibleAfterTick) {
  OutQueues q(4);
  q.push(make_cell(0, 2, 10));
  EXPECT_TRUE(q.empty(2));
  q.tick();
  EXPECT_FALSE(q.empty(2));
  EXPECT_EQ(q.front(2).head_arrival, 10);
}

TEST(OutQueues, FifoPerOutput) {
  OutQueues q(4);
  q.push(make_cell(0, 1, 10));
  q.push(make_cell(1, 1, 11));
  q.tick();
  EXPECT_EQ(q.pop(1).head_arrival, 10);
  EXPECT_EQ(q.pop(1).head_arrival, 11);
  EXPECT_TRUE(q.empty(1));
}

TEST(OutQueues, IndependentOutputs) {
  OutQueues q(3);
  q.push(make_cell(0, 0, 1));
  q.push(make_cell(0, 2, 2));
  q.tick();
  EXPECT_FALSE(q.empty(0));
  EXPECT_TRUE(q.empty(1));
  EXPECT_FALSE(q.empty(2));
  EXPECT_EQ(q.total_size(), 2u);
}

TEST(OutQueuesDeath, PopEmpty) {
  OutQueues q(2);
  EXPECT_DEATH(q.pop(0), "empty");
}

// --- InputLatches ------------------------------------------------------------

TEST(InputLatches, LatchCommitsAtTick) {
  InputLatches ir(2, 4, 8);
  ir.latch(1, 2, 0xAA, 0);
  EXPECT_EQ(ir.read(1, 2), 0u);
  ir.tick(0);
  EXPECT_EQ(ir.read(1, 2), 0xAAu);
}

TEST(InputLatches, OverwriteAfterWavePassesIsFine) {
  InputLatches ir(1, 4, 8);
  ir.latch(0, 0, 0x11, 0);
  ir.tick(0);
  ir.protect_for_wave(0, 1, 0);  // Wave consumes IR[0][s] at cycle 1+s.
  // Overwrite latch 0 at cycle 4 (> 1): allowed.
  ir.latch(0, 0, 0x22, 4);
  ir.tick(4);
  EXPECT_EQ(ir.read(0, 0), 0x22u);
}

TEST(InputLatchesDeath, OverwriteBeforeWaveReads) {
  InputLatches ir(1, 4, 8);
  ir.latch(0, 3, 0x11, 0);
  ir.tick(0);
  ir.protect_for_wave(0, 5, 0);  // Stage 3 consumed at cycle 5+3 = 8.
  EXPECT_DEATH(ir.latch(0, 3, 0x22, 6), "no-double-buffering");
}

TEST(InputLatches, BoundaryOverwriteExactlyAtConsumption) {
  // The paper's tightest case: the latch is overwritten at the end of the
  // very cycle the wave reads it.
  InputLatches ir(1, 4, 8);
  ir.latch(0, 2, 0x11, 0);
  ir.tick(0);
  ir.protect_for_wave(0, 3, 0);     // Stage 2 consumed during cycle 5.
  ir.latch(0, 2, 0x22, 5);          // Commits at END of 5: legal.
  EXPECT_EQ(ir.read(0, 2), 0x11u);  // During cycle 5 the old value reads.
  ir.tick(5);
  EXPECT_EQ(ir.read(0, 2), 0x22u);
}

TEST(InputLatches, CommitsEveryLatchLoadedInOneCycle) {
  // Several inputs and stages load in the same cycle: each commits at the
  // edge, and every latch not loaded keeps its value.
  InputLatches ir(3, 4, 8);
  ir.latch(0, 1, 0x01, 0);
  ir.latch(1, 3, 0x13, 0);
  ir.latch(2, 0, 0x20, 0);
  ir.latch(0, 2, 0x02, 0);
  for (unsigned i = 0; i < 3; ++i)
    for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(ir.read(i, s), 0u) << i << "," << s;
  ir.tick(0);
  const auto expect_row = [&](unsigned i, std::vector<Word> want) {
    for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(ir.read(i, s), want[s]) << i << "," << s;
  };
  expect_row(0, {0, 0x01, 0x02, 0});
  expect_row(1, {0, 0, 0, 0x13});
  expect_row(2, {0x20, 0, 0, 0});

  // Ticks with nothing staged change nothing.
  for (Cycle t = 1; t < 50; ++t) ir.tick(t);
  expect_row(0, {0, 0x01, 0x02, 0});
  expect_row(1, {0, 0, 0, 0x13});
  expect_row(2, {0x20, 0, 0, 0});

  // A later load commits only its own latch; the same latch may load again
  // in the next cycle.
  ir.latch(1, 3, 0x33, 50);
  ir.tick(50);
  ir.latch(1, 3, 0x34, 51);
  ir.latch(2, 1, 0x21, 51);
  ir.tick(51);
  expect_row(0, {0, 0x01, 0x02, 0});
  expect_row(1, {0, 0, 0, 0x34});
  expect_row(2, {0x20, 0x21, 0, 0});
}

TEST(InputLatchesDeath, LoadedTwiceInOneCycle) {
  InputLatches ir(2, 4, 8);
  ir.latch(1, 2, 0x11, 0);
  EXPECT_DEATH(ir.latch(1, 2, 0x22, 0), "loaded twice in one cycle");
}

// --- OutputRow ---------------------------------------------------------------

TEST(OutputRow, DrivesLinkNextCycle) {
  OutputRow row(4, 2, 8);
  std::vector<WireLink> links(2);
  row.load(0, 0x5A, 1, true);
  row.drive_links(links);
  for (auto& l : links) l.tick();
  EXPECT_FALSE(links[0].now().valid);
  EXPECT_TRUE(links[1].now().valid);
  EXPECT_TRUE(links[1].now().sop);
  EXPECT_EQ(links[1].now().data, 0x5Au);
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
  EXPECT_DEATH(row.drive_links(links), "two drivers");
}

TEST(OutputRow, ClearsAfterTick) {
  OutputRow row(4, 2, 8);
  std::vector<WireLink> links(2);
  row.load(2, 9, 0, false);
  row.drive_links(links);
  row.tick();
  for (auto& l : links) l.tick();
  row.load(2, 10, 0, false);  // Same stage reusable next cycle.
  row.drive_links(links);
  for (auto& l : links) l.tick();
  EXPECT_EQ(links[0].now().data, 10u);
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
  l.drive_next(Flit{true, true, 5});
  l.tick();
  EXPECT_TRUE(l.now().valid);
  l.tick();
  EXPECT_FALSE(l.now().valid);
}

TEST(WireLinkDeath, TwoDrivers) {
  WireLink l;
  l.drive_next(Flit{true, false, 1});
  EXPECT_DEATH(l.drive_next(Flit{true, false, 2}), "two drivers");
}

}  // namespace
}  // namespace pmsb
