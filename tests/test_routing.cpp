// Tests of the header-translation substrate (the figure-6 RT block): the
// routing table, VC field codec, and the HeaderTranslator component --
// standalone, chained (multi-hop VC translation), and feeding a switch.

#include <gtest/gtest.h>

#include "core/routing_table.hpp"
#include "core/switch.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"

namespace pmsb {
namespace {

CellFormat fmt16() { return CellFormat{16, 2, 8}; }

TEST(RoutingTable, ProgramLookupInvalidate) {
  RoutingTable rt(6);
  EXPECT_EQ(rt.size(), 64u);
  EXPECT_FALSE(rt.lookup(5).valid);
  rt.program(5, 3, 17);
  EXPECT_TRUE(rt.lookup(5).valid);
  EXPECT_EQ(rt.lookup(5).out_port, 3);
  EXPECT_EQ(rt.lookup(5).next_vc, 17u);
  rt.invalidate(5);
  EXPECT_FALSE(rt.lookup(5).valid);
}

TEST(RoutingTableDeath, OutOfRange) {
  RoutingTable rt(4);
  EXPECT_DEATH(rt.lookup(16), "beyond");
  EXPECT_DEATH(rt.program(3, 0, 16), "beyond");
}

TEST(HeaderCodec, VcRoundTrip) {
  const CellFormat fmt = fmt16();
  // Build a head for dest 2 with a known tag, then rewrite it.
  const Word head = cell_word(1234, 2, 0, fmt);
  const Word rewritten = make_translated_head(head, fmt, 6, /*out=*/1, /*next_vc=*/42);
  EXPECT_EQ(decode_dest(rewritten, fmt), 1u);
  EXPECT_EQ(head_vc(rewritten, fmt, 6), 42u);
  // Tag bits above the VC field are preserved.
  EXPECT_EQ(decode_tag(rewritten, fmt) >> 6, decode_tag(head, fmt) >> 6);
}

struct TranslatorRig {
  CellFormat fmt = fmt16();
  RoutingTable rt{6};
  WireLink in, out;
  WireTicker ticker;
  HeaderTranslator tr;
  Engine eng;

  TranslatorRig() : tr(&in, &out, fmt, &rt) {
    ticker.add(&in);
    ticker.add(&out);
    eng.add(&tr);
    eng.add(&ticker);
  }

  /// Drive a cell whose head carries `vc` toward destination-field `dest`.
  /// Returns the words observed on the output wire (valid cycles only).
  std::vector<Flit> send_and_capture(std::uint32_t vc, unsigned dest, Cycle extra = 4) {
    std::vector<Flit> seen;
    for (unsigned k = 0; k < fmt.length_words + extra; ++k) {
      if (k < fmt.length_words) {
        Word w = cell_word(99, dest, k, fmt);
        if (k == 0) w = make_translated_head(w, fmt, 6, dest, vc);
        in.drive_next(Flit{true, k == 0, w});
      }
      eng.step();
      if (out.now().valid) seen.push_back(out.now());
    }
    return seen;
  }
};

TEST(HeaderTranslator, TranslatesHeadAndPassesBody) {
  TranslatorRig rig;
  rig.rt.program(7, /*out=*/2, /*next_vc=*/33);
  const auto seen = rig.send_and_capture(7, 1);
  ASSERT_EQ(seen.size(), rig.fmt.length_words);
  EXPECT_TRUE(seen[0].sop);
  EXPECT_EQ(decode_dest(seen[0].data, rig.fmt), 2u);        // Rewritten port.
  EXPECT_EQ(head_vc(seen[0].data, rig.fmt, 6), 33u);        // Rewritten VC.
  for (unsigned k = 1; k < rig.fmt.length_words; ++k) {
    EXPECT_EQ(seen[k].data, cell_word(99, 1, k, rig.fmt));  // Body untouched.
  }
  EXPECT_EQ(rig.tr.cells_translated(), 1u);
  EXPECT_EQ(rig.tr.cells_unroutable(), 0u);
}

/// A stray body word (no head before it) violates the link contract: the
/// translator aborts on it like every other receiver.
TEST(HeaderTranslatorDeath, StrayBodyWordAborts) {
  EXPECT_DEATH(
      {
        TranslatorRig rig;
        rig.in.drive_next(Flit{true, false, 5});
        rig.eng.step();
        rig.eng.step();
      },
      CellRx::kBodyWithoutHead);
}

TEST(HeaderTranslator, UnroutableVcDiscardsWholeCell) {
  TranslatorRig rig;  // Table empty: everything unroutable.
  const auto seen = rig.send_and_capture(9, 1);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(rig.tr.cells_unroutable(), 1u);
  // The next, routable cell still goes through cleanly.
  rig.rt.program(3, 1, 11);
  const auto ok = rig.send_and_capture(3, 2);
  ASSERT_EQ(ok.size(), rig.fmt.length_words);
  EXPECT_EQ(head_vc(ok[0].data, rig.fmt, 6), 11u);
}

TEST(HeaderTranslator, BackToBackCells) {
  TranslatorRig rig;
  rig.rt.program(1, 0, 2);
  rig.rt.program(2, 1, 3);
  std::vector<Flit> seen;
  for (unsigned c = 0; c < 2; ++c) {
    for (unsigned k = 0; k < rig.fmt.length_words; ++k) {
      Word w = cell_word(100 + c, 0, k, rig.fmt);
      if (k == 0) w = make_translated_head(w, rig.fmt, 6, 0, c + 1);
      rig.in.drive_next(Flit{true, k == 0, w});
      rig.eng.step();
      if (rig.out.now().valid) seen.push_back(rig.out.now());
    }
  }
  for (int k = 0; k < 4; ++k) {
    rig.eng.step();
    if (rig.out.now().valid) seen.push_back(rig.out.now());
  }
  ASSERT_EQ(seen.size(), 2u * rig.fmt.length_words);
  EXPECT_EQ(head_vc(seen[0].data, rig.fmt, 6), 2u);
  EXPECT_EQ(head_vc(seen[rig.fmt.length_words].data, rig.fmt, 6), 3u);
}

TEST(HeaderTranslator, ChainedHopsTranslateTwice) {
  // Two translators in series: VC 5 -> (port 1, VC 9) -> (port 3, VC 20).
  const CellFormat fmt = fmt16();
  RoutingTable rt1(6), rt2(6);
  rt1.program(5, 1, 9);
  rt2.program(9, 3, 20);
  WireLink a, b, c;
  HeaderTranslator t1(&a, &b, fmt, &rt1);
  HeaderTranslator t2(&b, &c, fmt, &rt2);
  WireTicker ticker;
  ticker.add(&a);
  ticker.add(&b);
  ticker.add(&c);
  Engine eng;
  eng.add(&t1);
  eng.add(&t2);
  eng.add(&ticker);
  Flit head_out;
  for (unsigned k = 0; k < fmt.length_words + 4; ++k) {
    if (k < fmt.length_words) {
      Word w = cell_word(7, 0, k, fmt);
      if (k == 0) w = make_translated_head(w, fmt, 6, 0, 5);
      a.drive_next(Flit{true, k == 0, w});
    }
    eng.step();
    if (c.now().sop) head_out = c.now();
  }
  ASSERT_TRUE(head_out.valid);
  EXPECT_EQ(decode_dest(head_out.data, fmt), 3u);
  EXPECT_EQ(head_vc(head_out.data, fmt, 6), 20u);
}

TEST(HeaderTranslator, RoutesCellsIntoSwitchPorts) {
  // End to end: a translator in front of a 4x4 switch steers cells by VC.
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 8;
  cfg.capacity_segments = 16;
  PipelinedSwitch sw(cfg);
  RoutingTable rt(6);
  rt.program(/*vc=*/4, /*out=*/3, /*next_vc=*/8);
  WireLink wire_in;
  HeaderTranslator tr(&wire_in, &sw.in_link(0), cfg.cell_format(), &rt);
  WireTicker ticker;
  ticker.add(&wire_in);
  Engine eng;
  eng.add(&tr);
  eng.add(&sw);
  eng.add(&ticker);
  const CellFormat fmt = cfg.cell_format();
  bool seen_on_3 = false;
  for (unsigned k = 0; k < fmt.length_words + 8; ++k) {
    if (k < fmt.length_words) {
      Word w = cell_word(55, /*dest (pre-translation)=*/0, k, fmt);
      if (k == 0) w = make_translated_head(w, fmt, 6, 0, 4);
      wire_in.drive_next(Flit{true, k == 0, w});
    }
    eng.step();
    seen_on_3 |= sw.out_link(3).now().valid;
  }
  EXPECT_TRUE(seen_on_3);
  EXPECT_EQ(sw.stats().read_grants, 1u);
}

}  // namespace
}  // namespace pmsb
