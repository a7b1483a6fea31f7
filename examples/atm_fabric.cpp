// ATM-style fabric study: a 16x16 pipelined-memory shared-buffer switch
// carrying fixed-size cells (the paper argues high-speed networks converge
// to fixed-size cells, section 2.3 -- "ATM, with 53-byte fixed-size cells,
// is a big step in that direction").
//
// The cell here is one quantum of the 16x16 geometry: 32 words x 16 bits =
// 64 bytes -- the padded-ATM-cell size the quantum discussion of section 3.5
// contemplates (32-64 bytes). The program sweeps offered load and prints
// delivered throughput, loss, and the head-latency distribution, for both
// smooth (Bernoulli) and bursty (on/off) traffic, with payload verification
// on every delivered cell.

#include <cstdio>

#include "core/testbench.hpp"
#include "stats/table.hpp"

using namespace pmsb;

namespace {

struct RunResult {
  double util;
  double loss;
  std::uint64_t lat_min, lat_p50, lat_p99;
  double lat_mean;
  bool verified;
};

RunResult run(const SwitchConfig& cfg, double load, bool bursty, std::uint64_t seed) {
  TrafficSpec spec;
  spec.load = load;
  if (bursty) spec.arrivals = ArrivalKind::kBursty;
  spec.mean_burst_cells = 8.0;
  spec.seed = seed;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  tb.run(120000);
  tb.drain(1000000);
  const auto& sb = tb.scoreboard();
  RunResult r;
  r.util = static_cast<double>(tb.delivered()) * cfg.cell_words /
           (static_cast<double>(cfg.n_ports) * 120000.0);
  r.loss = sb.injected() == 0
               ? 0.0
               : static_cast<double>(sb.dropped()) / static_cast<double>(sb.injected());
  r.lat_min = sb.latency().min();
  r.lat_p50 = sb.latency().p50();
  r.lat_p99 = sb.latency().p99();
  r.lat_mean = sb.latency().mean();
  r.verified = sb.ok() && sb.fully_drained();
  return r;
}

}  // namespace

int main() {
  SwitchConfig cfg;
  cfg.n_ports = 16;
  cfg.word_bits = 16;
  cfg.cell_words = 32;          // 64-byte cells (one quantum at n = 16).
  cfg.capacity_segments = 256;  // 256-cell shared buffer (16 KB).
  cfg.clock_mhz = 200.0;        // A late-90s-ASIC-ish what-if clock.
  cfg.validate();

  std::printf("ATM-style fabric: %s\n", cfg.describe().c_str());
  std::printf("Cell = %u bytes; every delivered cell is payload-verified and\n"
              "per-flow FIFO order is checked by the scoreboard.\n",
              cfg.cell_words * cfg.word_bits / 8);

  for (bool bursty : {false, true}) {
    std::printf("\n%s traffic (uniform destinations):\n\n",
                bursty ? "Bursty on/off (mean burst 8 cells)" : "Smooth Bernoulli");
    Table t({"offered", "carried", "loss", "lat min", "lat p50", "lat p99", "lat mean",
             "verified"});
    for (double load : {0.3, 0.5, 0.7, 0.85, 0.95}) {
      const RunResult r = run(cfg, load, bursty, 1000 + static_cast<int>(load * 100));
      t.add_row({Table::num(load, 2), Table::num(r.util, 3), Table::sci(r.loss, 1),
                 Table::integer(static_cast<long long>(r.lat_min)),
                 Table::integer(static_cast<long long>(r.lat_p50)),
                 Table::integer(static_cast<long long>(r.lat_p99)),
                 Table::num(r.lat_mean, 1), r.verified ? "yes" : "NO"});
    }
    t.print();
  }

  std::printf(
      "\nReading: latency is head-in to head-out in cycles (min 2 = pure\n"
      "cut-through). Bursty traffic needs the shared buffer's statistical\n"
      "multiplexing: same pool, higher occupancy, loss appears earlier --\n"
      "exactly why sizing studies (bench E3) use loss-vs-capacity curves.\n");
  return 0;
}
