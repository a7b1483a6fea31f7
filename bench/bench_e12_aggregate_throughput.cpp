// E12 -- Section 3.5 (packet-size quantum) and section 4.4: aggregate
// shared-buffer throughput arithmetic, cross-checked against the simulator.
//
// Paper: "consider a quantum as small as 32 to 64 bytes ... buffer widths of
// 256 to 1024 bits. With an (on-chip) memory cycle time of 5 ns ... the
// aggregate throughput of such a buffer is 50 to 200 Gb/s -- enough for 16
// incoming and 16 outgoing links near the Giga-Byte per second range."
// And Telegraphos III: 16 stages x 16 bits at 16 ns worst = 16 Gb/s
// aggregate, 1 Gb/s per link.

#include <cstdio>

#include "area/models.hpp"
#include "bench_util.hpp"
#include "core/config.hpp"

using namespace pmsb;
using namespace pmsb::bench;

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"E12", "packet-size quantum and aggregate throughput (sections 3.5, 4.4)", "e12_aggregate_throughput"},
      [](pmsb::bench::BenchContext& ctx) {
        BenchJson& bj = ctx.json;
    std::printf("\nQuantum arithmetic at a 5 ns memory cycle (section 3.5):\n\n");
    Table q({"buffer width", "quantum (bytes)", "aggregate", "per link (16+16 links)"});
    for (unsigned width : {256u, 512u, 1024u}) {
      q.add_row({Table::integer(width) + " bits", Table::integer(width / 8),
                 Table::num(area::aggregate_gbps(width, 5.0), 1) + " Gb/s",
                 Table::num(area::aggregate_gbps(width, 5.0) / 32.0, 2) + " Gb/s"});
    }
    q.print();
    std::printf("\n(paper: 50 to 200 Gb/s aggregate -- 'chip I/O throughput rather than\n"
                "memory cycle time is the bottleneck')\n");

    std::printf("\nSimulator cross-check at Telegraphos III (16 stages x 16 b, 62.5 MHz\n"
                "worst-case): measured aggregate buffer throughput at saturation =\n"
                "(write + read + 2 x snoop initiations) x 256 bits x clock:\n\n");
    const SwitchConfig cfg = SwitchConfig::telegraphos3();
    TrafficSpec spec;
    spec.arrivals = ArrivalKind::kSaturated;
    spec.load = 1.0;
    spec.seed = 4;
    const CycleRun r = run_pipelined(cfg, spec, 40000, 4000);
    const double ops_per_cycle =
        static_cast<double>(r.stats.write_initiations + r.stats.read_initiations +
                            2 * r.stats.snoop_initiations) /
        static_cast<double>(r.stats.cycles);
    const double agg_gbps =
        ops_per_cycle * cfg.cell_words * cfg.word_bits * cfg.clock_mhz * 1e6 / 1e9;
    Table t({"quantity", "measured", "paper"});
    t.add_row({"cell transfers through M0 per cycle", Table::num(ops_per_cycle, 3), "1.0"});
    t.add_row({"aggregate buffer throughput", Table::num(agg_gbps, 1) + " Gb/s", "16 Gb/s"});
    t.add_row({"per-link throughput",
               Table::num(r.output_utilization * cfg.link_mbps() / 1000.0, 2) + " Gb/s",
               "1 Gb/s (worst case)"});
    t.print();

    bj.metric("throughput", r.output_utilization);
    bj.metric("mean_latency", r.head_latency.mean());
    bj.metric("occupancy", r.mean_buffer_occupancy);
    bj.metric("cell_transfers_per_cycle", ops_per_cycle);
    bj.metric("aggregate_gbps", agg_gbps);
    bj.metric("per_link_gbps", r.output_utilization * cfg.link_mbps() / 1000.0);
    bj.add_table("quantum arithmetic", q);
    bj.add_table("simulator cross-check", t);

    std::printf(
        "\nShape check vs paper: the shared buffer moves one full cell per memory\n"
        "cycle (writes + reads combined), which is exactly the aggregate link\n"
        "demand -- the 'throughput 2n' sizing argument of section 2.3.\n");
    return 0;
      });
}
