// Simulator micro-benchmarks (google-benchmark): cycles/second of the
// cycle-accurate switches and slots/second of the behavioural models. Not a
// paper experiment -- this documents the cost of running the reproduction
// itself and guards against performance regressions in the kernel.
//
// Unlike stock BENCHMARK_MAIN(), main() installs a capturing reporter and
// publishes every benchmark's items/second into BENCH_sim_speed.json, so CI
// can track kernel throughput PR over PR alongside the experiment artifacts.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

#include "arch/shared_buffer.hpp"
#include "core/dual_switch.hpp"
#include "core/fast_switch.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

void BM_PipelinedSwitchCycles(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = static_cast<unsigned>(state.range(0));
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 1;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelinedSwitchCycles)->Arg(4)->Arg(8)->Arg(16);

void BM_PipelinedWithScoreboard(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.cell_words = 16;
  cfg.capacity_segments = 128;
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 2;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/true);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelinedWithScoreboard);

/// Low-load runs are where the quiescence-aware kernel earns its keep: the
/// arguments are {load percent, idle skipping on/off}, so each load's pair
/// measures stepping and skipping on the same run (main() publishes both
/// paths' ns per cycle into the artifact's runtime block).
void BM_PipelinedLowLoad(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.load = static_cast<double>(state.range(0)) / 100.0;
  spec.seed = 9;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
  tb.engine().set_idle_skip(state.range(1) != 0);
  for (auto _ : state) tb.run(20000);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PipelinedLowLoad)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({10, 0})
    ->Args({10, 1});

/// The behavioural fast model under saturation: its cycle cost is what a
/// cold fabric node pays instead of the full pipelined datapath.
void BM_FastSwitchCycles(benchmark::State& state) {
  SwitchConfig cfg;
  cfg.n_ports = static_cast<unsigned>(state.range(0));
  cfg.word_bits = 16;
  cfg.cell_words = 2 * cfg.n_ports;
  cfg.capacity_segments = 32 * cfg.n_ports;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 1;
  Testbench<FastSwitch, SwitchConfig> tb(cfg, cfg.n_ports, cfg.cell_format(), spec,
                                         /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FastSwitchCycles)->Arg(4)->Arg(8)->Arg(16);

void BM_DualSwitchCycles(benchmark::State& state) {
  DualSwitchConfig cfg;
  cfg.n_ports = 8;
  cfg.word_bits = 16;
  cfg.capacity_segments_per_group = 128;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 3;
  Testbench<DualPipelinedSwitch, DualSwitchConfig> tb(cfg, cfg.n_ports, cfg.cell_format(),
                                                      spec, /*scoreboard=*/false);
  for (auto _ : state) tb.run(1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DualSwitchCycles);

void BM_SharedBufferSlots(benchmark::State& state) {
  const unsigned n = 16;
  SharedBufferModel model(n, 128);
  UniformDest dests(n);
  SlotTraffic traffic(n, 0.9, &dests, Rng(4));
  Cycle slot = 0;  // Monotonic across iterations (latency bookkeeping).
  for (auto _ : state) {
    for (int s = 0; s < 1000; ++s) model.step(slot++, traffic.step());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SharedBufferSlots);

/// ConsoleReporter that additionally records each run's items/second (and
/// an item count estimate) for the JSON artifact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const auto it = r.counters.find("items_per_second");
      if (it == r.counters.end()) continue;
      const double ips = static_cast<double>(it->second);
      rates_.emplace_back(r.benchmark_name(), ips);
      bench::add_simulated_units(
          static_cast<std::uint64_t>(ips * r.real_accumulated_time));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& rates() const { return rates_; }

 private:
  std::vector<std::pair<std::string, double>> rates_;
};

}  // namespace
}  // namespace pmsb

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"SIM", "simulation-kernel speed (google-benchmark)", "sim_speed"},
      [](pmsb::bench::BenchContext& ctx) {
        // Main consumed the shared flags; the remainder (--benchmark_*) is
        // google-benchmark's.
        benchmark::Initialize(&ctx.argc, ctx.argv);
        if (benchmark::ReportUnrecognizedArguments(ctx.argc, ctx.argv)) return 1;
        pmsb::CapturingReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        benchmark::Shutdown();

        double total = 0;
        for (const auto& [name, ips] : reporter.rates()) {
          ctx.json.metric(name + " items/s", ips);
          total += ips;
        }
        // The fixed-schema keys: "throughput" aggregates the per-benchmark
        // rates so a single number is diffable at a glance.
        ctx.json.metric("throughput", total);
        // Idle skipping at 2% and 10% load: each path's own cost per
        // simulated cycle, side by side (timing-dependent, so in the runtime
        // block, not metrics). A stepped/skipping ratio would read worse
        // whenever stepping got cheaper.
        const auto rate_of = [&reporter](const std::string& name) {
          for (const auto& [n, ips] : reporter.rates()) {
            if (n == name) return ips;
          }
          return 0.0;
        };
        const std::pair<const char*, const char*> kLowLoad[] = {
            {"BM_PipelinedLowLoad/2/0", "low_load_skip_off_ns_per_cycle"},
            {"BM_PipelinedLowLoad/2/1", "low_load_skip_on_ns_per_cycle"},
            {"BM_PipelinedLowLoad/10/0", "ten_pct_load_skip_off_ns_per_cycle"},
            {"BM_PipelinedLowLoad/10/1", "ten_pct_load_skip_on_ns_per_cycle"},
        };
        for (const auto& [bench_name, key] : kLowLoad) {
          const double cycles_per_s = rate_of(bench_name);
          if (cycles_per_s > 0) ctx.json.runtime_metric(key, 1e9 / cycles_per_s);
        }
        return 0;
      });
}
