// E5 -- Sections 3.2-3.3, figures 4-5: the pipelined memory sustains full
// line rate on all links with at most ONE wave initiation per cycle at M0,
// and cut-through is automatic with a 2-cycle minimum head latency.
//
// Regenerates: output utilization and initiation accounting at saturation,
// and the head-latency distribution at light load, on the cycle-accurate
// Telegraphos III configuration (8x8, 16 stages).

#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "core/config.hpp"

using namespace pmsb;
using namespace pmsb::bench;

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"E5", "full line rate and automatic cut-through (sections 3.2-3.3)", "e5_linerate_cutthrough"},
      [](pmsb::bench::BenchContext& ctx) {
        BenchJson& bj = ctx.json;
    exp::SweepRunner runner;
    const SwitchConfig cfg = SwitchConfig::telegraphos3();
    std::printf("\nDevice: %s\n", cfg.describe().c_str());

    std::printf("\nSaturated traffic (offered 1.0). 'init/cycle' counts physical M0\n"
                "accesses (a write+snoop pair is ONE access); it can never exceed 1.\n"
                "'buf peak'/'buf mean' are shared-buffer occupancy in segments from\n"
                "the sampled metrics layer:\n\n");
    Table t({"pattern", "output util", "init/cycle", "snoop share", "drops", "buf peak",
             "buf mean"});
    const std::vector<std::pair<const char*, PatternKind>> pats = {
        {"permutation", PatternKind::kPermutation}, {"uniform", PatternKind::kUniform}};
    const std::vector<CycleRun> sat_r = runner.map(pats, [&cfg](const auto& p) {
      TrafficSpec spec;
      spec.arrivals = ArrivalKind::kSaturated;
      spec.pattern = p.second;
      spec.load = 1.0;
      spec.seed = 5;
      return run_pipelined(cfg, spec, 40000, 4000);
    });
    CycleRun sat_uniform;
    for (std::size_t i = 0; i < pats.size(); ++i) {
      const CycleRun& r = sat_r[i];
      const double inits =
          static_cast<double>(r.stats.write_initiations + r.stats.read_initiations +
                              r.stats.snoop_initiations) /
          static_cast<double>(r.stats.cycles);
      const double snoop_share =
          static_cast<double>(r.stats.snoop_cells) / static_cast<double>(r.stats.read_grants);
      t.add_row({pats[i].first, Table::num(r.output_utilization, 3), Table::num(inits, 3),
                 Table::num(snoop_share, 3),
                 Table::integer(static_cast<long long>(r.stats.dropped())),
                 Table::integer(r.buffer_peak), Table::num(r.mean_buffer_occupancy, 1)});
      if (pats[i].second == PatternKind::kUniform) sat_uniform = r;
    }
    t.print();

    std::printf(
        "\nLight-load cut-through head latency (head word in -> head word out),\n"
        "geometric arrivals, uniform destinations. Ablation: disabling the\n"
        "same-cycle write-bus snoop costs exactly one cycle of minimum latency --\n"
        "and even without it, departures still overlap arrivals by reading the\n"
        "memory one wave behind the write (cut-through is structural in this\n"
        "organization; only the wide memory needs extra datapath for it):\n\n");
    Table lat({"load", "snoop", "min", "mean", "p99", "cut share"});
    struct LatPoint {
      double load;
      bool ct;
    };
    std::vector<LatPoint> lat_grid;
    for (double load : {0.05, 0.2, 0.4}) {
      for (bool ct : {true, false}) lat_grid.push_back({load, ct});
    }
    const std::vector<CycleRun> lat_r = runner.map(lat_grid, [&cfg](const LatPoint& p) {
      SwitchConfig c = cfg;
      c.cut_through = p.ct;
      TrafficSpec spec;
      spec.load = p.load;
      spec.seed = 6;
      return run_pipelined(c, spec, 60000, 6000);
    });
    CycleRun light_ct;
    for (std::size_t i = 0; i < lat_grid.size(); ++i) {
      const CycleRun& r = lat_r[i];
      lat.add_row({Table::num(lat_grid[i].load, 2), lat_grid[i].ct ? "on" : "off (ablation)",
                   Table::integer(static_cast<long long>(r.head_latency.min())),
                   Table::num(r.head_latency.mean(), 2),
                   Table::integer(static_cast<long long>(r.head_latency.p99())),
                   Table::num(static_cast<double>(r.stats.cut_through_cells) /
                                  static_cast<double>(r.stats.read_grants),
                              3)});
      if (lat_grid[i].load == 0.05 && lat_grid[i].ct) light_ct = r;
    }
    lat.print();

    bj.metric("throughput", sat_uniform.output_utilization);
    bj.metric("mean_latency", light_ct.head_latency.mean());
    bj.metric("p99_latency", static_cast<double>(light_ct.head_latency.p99()));
    bj.metric("min_head_latency", static_cast<double>(light_ct.head_latency.min()));
    bj.metric("occupancy", sat_uniform.mean_buffer_occupancy);
    bj.metric("buffer_peak", static_cast<double>(sat_uniform.buffer_peak));
    bj.metric("stalled_read_initiations",
              static_cast<double>(sat_uniform.stalled_read_initiations));
    bj.add_table("saturated traffic", t);
    bj.add_table("light-load cut-through head latency", lat);

    std::printf(
        "\nShape check vs paper: utilization ~1.0 at saturation with <= 1 initiation\n"
        "per cycle (the organization's sizing claim), and the minimum head latency\n"
        "is exactly 2 cycles -- cut-through needs no extra datapath (section 3.3).\n");
    return 0;
      });
}
