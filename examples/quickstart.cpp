// Quickstart: build a 4x4 pipelined-memory shared-buffer switch, push three
// cells through it, and watch the wave-based operation cycle by cycle --
// including an automatic cut-through (the head of a cell leaves on its
// output link two cycles after it arrived, while its tail is still on the
// input wire).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/switch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

using namespace pmsb;

namespace {

/// Drive the words of one cell onto an input link, one per cycle, stepping
/// the engine as we go (like a link transmitter would). A word driven while
/// the engine is about to run cycle t is on the wire during t+1.
void send_cell(Engine& eng, PipelinedSwitch& sw, unsigned input, std::uint64_t uid,
               unsigned dest) {
  const CellFormat fmt = sw.config().cell_format();
  std::printf("\n-- sending cell uid=%llu: input %u -> output %u (head on wire at cycle %lld)\n",
              static_cast<unsigned long long>(uid), input, dest,
              static_cast<long long>(eng.now() + 1));
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(input).drive_next(eng.now(), Flit{true, k == 0, cell_word(uid, dest, k, fmt)});
    eng.step();
  }
}

}  // namespace

int main() {
  // A small Telegraphos-I-like device: 4x4 crossbar, 8-bit links, 8-byte
  // cells, 8 pipelined memory stages (see SwitchConfig for the knobs).
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 8;
  cfg.cell_words = 8;  // One quantum: 2 * n_ports words.
  cfg.capacity_segments = 32;
  cfg.validate();
  std::printf("Device: %s\n", cfg.describe().c_str());

  PipelinedSwitch sw(cfg);

  // Observability: the switch pushes typed records into a bounded ring
  // buffer; the Tracer is attached as a live drain so each record is also
  // formatted to stdout as it happens. Drop the attach_live call to keep
  // tracing silent and inspect the retained records afterwards instead.
  obs::TraceBuffer trace(256);
  Tracer tracer(stdout);
  tracer.attach_live(trace);
  sw.set_trace(&trace);

  // Metrics: the switch registers named counters and occupancy gauges; the
  // engine samples the gauges every 4 cycles.
  obs::MetricsRegistry metrics;
  sw.register_metrics(metrics);

  // Narrate arrivals/departures via the event hooks.
  SwitchEvents ev;
  ev.on_accept = [](unsigned input, Cycle a0, Cycle t0) {
    std::printf("          cell from input %u (head cycle %lld): write wave granted at "
                "t0=%lld (slack %lld of the 2n-cycle window)\n",
                input, static_cast<long long>(a0), static_cast<long long>(t0),
                static_cast<long long>(t0 - a0));
  };
  ev.on_read_grant = [](unsigned out, unsigned, Cycle tr, Cycle t0, Cycle a0, bool cut) {
    std::printf("          departure on output %u granted at tr=%lld (%s%s) -- head word "
                "hits the output wire at cycle %lld, %lld cycles after arrival\n",
                out, static_cast<long long>(tr), cut ? "cut-through" : "from buffer",
                tr == t0 ? ", same-cycle snoop of the write bus" : "",
                static_cast<long long>(tr + 1), static_cast<long long>(tr + 1 - a0));
  };
  const Subscription ev_sub = sw.events().subscribe(std::move(ev));

  Engine eng;
  eng.add(&sw);
  eng.set_metrics(&metrics, /*period=*/4);

  // Watch the output links during the cycle the engine runs next.
  auto show_outputs = [&] {
    for (unsigned o = 0; o < cfg.n_ports; ++o) {
      const Flit& f = sw.out_link(o).now(eng.now());
      if (f.valid)
        std::printf("          [wire] output %u carries %s word 0x%02llx\n", o,
                    f.sop ? "HEAD" : "body", static_cast<unsigned long long>(f.data));
    }
  };

  // 1. A lone cell: arrives, cuts through, departs with 2-cycle head latency.
  send_cell(eng, sw, /*input=*/0, /*uid=*/1, /*dest=*/2);
  for (int k = 0; k < 4; ++k) {
    eng.step();
    show_outputs();
  }

  // 2. Two cells to the SAME output in the same cycle: the shared output
  //    register row staggers the second departure (section 3.4).
  std::printf("\n-- sending two simultaneous cells, both to output 1\n");
  const CellFormat fmt = cfg.cell_format();
  for (unsigned k = 0; k < fmt.length_words; ++k) {
    sw.in_link(1).drive_next(eng.now(), Flit{true, k == 0, cell_word(2, 1, k, fmt)});
    sw.in_link(3).drive_next(eng.now(), Flit{true, k == 0, cell_word(3, 1, k, fmt)});
    eng.step();
  }
  for (int k = 0; k < 20; ++k) eng.step();

  const SwitchStats& st = sw.stats();
  std::printf("\nRun summary: %llu cells in, %llu departures (%llu cut-through, "
              "%llu same-cycle snoops), %llu drops, %llu idle cycles of %llu.\n",
              static_cast<unsigned long long>(st.heads_seen),
              static_cast<unsigned long long>(st.read_grants),
              static_cast<unsigned long long>(st.cut_through_cells),
              static_cast<unsigned long long>(st.snoop_cells),
              static_cast<unsigned long long>(st.dropped()),
              static_cast<unsigned long long>(st.idle_cycles),
              static_cast<unsigned long long>(st.cycles));
  std::printf("Switch drained: %s\n", sw.drained() ? "yes" : "no");

  // The metrics registry has the same story in counter/gauge form.
  std::printf("\nMetrics (%llu gauge samples, every %lld cycles):\n",
              static_cast<unsigned long long>(metrics.samples_taken()),
              static_cast<long long>(eng.sample_period()));
  for (const auto& c : metrics.counters())
    std::printf("  %-34s %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  for (const auto& g : metrics.gauges())
    std::printf("  %-34s last %.0f  max %.0f  mean %.2f\n", g.name.c_str(), g.stats.last,
                g.stats.max, g.stats.mean());
  std::printf("\nTrace buffer retained %zu of %llu records (ring capacity 256).\n",
              trace.size(), static_cast<unsigned long long>(trace.total()));
  return 0;
}
