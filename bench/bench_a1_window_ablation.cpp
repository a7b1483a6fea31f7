// A1 -- Ablation for section 3.2's no-double-buffering claim. The pipelined
// memory needs only ONE row of input latches because the storing wave chases
// the arrival wave; the wide memory must add a second (staging) row, and
// still loses cells when the staging row cannot drain in time.
//
// Measured here: (a) the distribution of write-wave slack (t0 - a0) on the
// pipelined switch under saturation -- always within the 2n-cycle window,
// with zero slot-miss drops; (b) the wide-memory switch's double-buffer
// overrun drops under the same traffic; (c) head latency of both.

#include <cstdio>

#include "arch/wide/wide_switch.hpp"
#include "bench_util.hpp"
#include "core/testbench.hpp"
#include "stats/hdr_histogram.hpp"

using namespace pmsb;
using namespace pmsb::bench;

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"A1", "input double-buffering ablation (pipelined vs wide, section 3.2)", "a1_window_ablation"},
      [](pmsb::bench::BenchContext& ctx) {
    SwitchConfig cfg;
    cfg.n_ports = 8;
    cfg.word_bits = 16;
    cfg.cell_words = 16;
    cfg.capacity_segments = 64;  // Deliberately small: heavy buffer pressure.

    TrafficSpec spec;
    spec.arrivals = ArrivalKind::kSaturated;
    spec.load = 1.0;
    spec.seed = 13;

    // --- pipelined: write-wave slack histogram -------------------------------
    PipelinedTestbench pipe(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
    HdrHistogram slack;
    SwitchEvents ev;
    ev.on_accept = [&](unsigned, Cycle a0, Cycle t0) {
      slack.add(static_cast<std::uint64_t>(t0 - a0));
    };
    const Subscription ev_sub = pipe.dut().events().subscribe(std::move(ev));
    pipe.run(60000);

    std::printf("\nPipelined switch, saturated uniform traffic, window = 2n = %u cycles.\n"
                "Write-wave slack t0 - a0 (must stay in [1, %u]):\n\n",
                cfg.stages(), cfg.stages());
    Table t({"metric", "value"});
    t.add_row({"min slack", Table::integer(static_cast<long long>(slack.min()))});
    t.add_row({"mean slack", Table::num(slack.mean(), 2)});
    t.add_row({"max slack", Table::integer(static_cast<long long>(slack.max()))});
    t.add_row({"window (2n)", Table::integer(cfg.stages())});
    t.add_row({"slot-miss drops", Table::integer(static_cast<long long>(
                                     pipe.dut().stats().dropped_no_slot))});
    t.add_row({"buffer-full drops", Table::integer(static_cast<long long>(
                                       pipe.dut().stats().dropped_no_addr))});
    t.print();

    // --- wide: overrun drops under identical traffic -------------------------
    Testbench<WideMemorySwitch, SwitchConfig> wide(cfg, cfg.n_ports, cfg.cell_format(), spec,
                                                   /*scoreboard=*/false);
    wide.run(60000);
    const auto& ws = wide.dut().stats();
    std::printf("\nWide-memory switch (with its mandatory double buffering) under the\n"
                "same saturated traffic:\n\n");
    Table w({"metric", "value"});
    w.add_row({"staging-row overrun drops", Table::integer(static_cast<long long>(
                                                ws.dropped_no_slot))});
    w.add_row({"accepted cells", Table::integer(static_cast<long long>(ws.accepted))});
    w.add_row({"bypass (cut-through) cells", Table::integer(static_cast<long long>(
                                                 ws.cut_through_cells))});
    w.print();

    // --- latency comparison at moderate load ---------------------------------
    std::printf("\nHead latency at moderate load (0.6, geometric, uniform): the wide\n"
                "memory can only cut through when the single head-arrival-instant\n"
                "opportunity is available; otherwise it stores and forwards:\n\n");
    TrafficSpec mild;
    mild.load = 0.6;
    mild.seed = 14;
    PipelinedTestbench p2(cfg, cfg.n_ports, cfg.cell_format(), mild, /*scoreboard=*/true);
    Testbench<WideMemorySwitch, SwitchConfig> w2(cfg, cfg.n_ports, cfg.cell_format(), mild,
                                                 /*scoreboard=*/true);
    p2.run(60000);
    w2.run(60000);
    p2.drain(500000);
    w2.drain(500000);
    Table lat({"switch", "min", "mean", "p99", "cut-through share"});
    lat.add_row({"pipelined",
                 Table::integer(static_cast<long long>(p2.scoreboard().latency().min())),
                 Table::num(p2.scoreboard().latency().mean(), 1),
                 Table::integer(static_cast<long long>(p2.scoreboard().latency().p99())),
                 Table::num(static_cast<double>(p2.dut().stats().cut_through_cells) /
                                static_cast<double>(p2.dut().stats().read_grants),
                            3)});
    lat.add_row({"wide memory",
                 Table::integer(static_cast<long long>(w2.scoreboard().latency().min())),
                 Table::num(w2.scoreboard().latency().mean(), 1),
                 Table::integer(static_cast<long long>(w2.scoreboard().latency().p99())),
                 Table::num(static_cast<double>(w2.dut().stats().cut_through_cells) /
                                static_cast<double>(w2.dut().stats().read_grants),
                            3)});
    lat.print();

    ctx.json.metric("pipelined mean latency", p2.scoreboard().latency().mean());
    ctx.json.metric("wide mean latency", w2.scoreboard().latency().mean());

    std::printf(
        "\nShape check vs paper: the pipelined switch never misses its latch window\n"
        "(slack <= 2n, zero slot-miss drops) with ONE latch row; the wide memory\n"
        "pays a second row, cuts through far less often, and its mean latency is\n"
        "higher -- the figure 3 vs figure 4 comparison, quantified.\n");
    return 0;
      });
}
