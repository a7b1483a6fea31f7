// FS -- Fabric scaling: whole topologies of cycle-accurate pipelined-memory
// switches (section 5's "switching fabrics made of single-chip switches"),
// run on the sharded fabric engine (src/fabric/) at 1, 2 and 4 worker
// threads.
//
// Two claims are exercised:
//  * Determinism: delivered-cell digests, drops and latencies are
//    bit-identical at every thread count (the bench FAILS otherwise, and
//    everything outside the "runtime" JSON object is diffable byte for
//    byte).
//  * Scaling: node-cycles per second improve with threads. Wall-clock rates
//    and speedups are timing-dependent, so they are published only inside
//    the "runtime" object (excluded from determinism diffs).

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeseries.hpp"

using namespace pmsb;
using namespace pmsb::bench;

namespace {

// Per-stage p99 of the merged flight recorders: part of the determinism
// surface, so it is compared across thread counts alongside the digests.
using FlightP99 = std::array<std::uint64_t, obs::kFlightStageCount>;

struct Run {
  unsigned threads;
  double wall_seconds;
  fabric::FabricStats stats;
  FlightP99 flight_p99{};
};

constexpr Cycle kCycles = 6000;
constexpr unsigned kLinkStages = 8;  // D: lookahead and per-link latency - 1.
constexpr Cycle kFlightWarmup = 500;

/// The one public construction path: Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

fabric::FabricConfig make_config(const net::Topology& topo, std::uint64_t seed,
                                 unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = kLinkStages;
  cfg.load = 0.6;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.flight_recorder = true;
  cfg.flight_warmup = kFlightWarmup;
  return cfg;
}

FlightP99 flight_p99_of(const obs::FlightRecorder& fr) {
  FlightP99 out{};
  for (unsigned s = 0; s < obs::kFlightStageCount; ++s)
    out[s] = fr.stage(static_cast<obs::FlightStage>(s)).p99();
  return out;
}

// Fill a runtime.<name> block from the fabric's scheduling-layer telemetry:
// steal/rebalance totals, per-worker wall-clock slices, and per-task
// stall composition. All timing-derived -> runtime object only.
void scheduler_block(BenchJson& bj, const std::string& name, const fabric::Fabric& fab) {
  const fabric::FabricSchedulerStats s = fab.scheduler_stats();
  BenchJson::RuntimeBlock& b = bj.runtime_block(name);
  b.set("workers", static_cast<double>(s.workers));
  b.set("tasks", static_cast<double>(s.tasks));
  b.set("steals", static_cast<double>(s.steals));
  b.set("rebalance_splits", static_cast<double>(s.splits));
  b.set("rebalance_merges", static_cast<double>(s.merges));
  b.set_list("rebalance_log", s.rebalance_log);
  std::vector<BenchJson::RuntimeBlock::ObjectRow> workers;
  for (const auto& w : s.per_worker) {
    workers.push_back({{"active_ms", static_cast<double>(w.active_ns) / 1e6},
                       {"idle_ms", static_cast<double>(w.idle_ns) / 1e6},
                       {"steals", static_cast<double>(w.steals)},
                       {"slices", static_cast<double>(w.slices)}});
  }
  b.set_objects("per_worker", std::move(workers));
  std::vector<BenchJson::RuntimeBlock::ObjectRow> tasks;
  for (const fabric::ShardTelemetry& t : fab.shard_telemetry()) {
    tasks.push_back({{"nodes", static_cast<double>(t.nodes)},
                     {"active_ms", static_cast<double>(t.active_ns) / 1e6},
                     {"barrier_wait_ms", static_cast<double>(t.barrier_wait_ns) / 1e6},
                     {"blocked_on_empty_ms", static_cast<double>(t.blocked_on_empty_ns) / 1e6},
                     {"blocked_on_full_ms", static_cast<double>(t.blocked_on_full_ns) / 1e6},
                     {"steals", static_cast<double>(t.steals)},
                     {"chunks", static_cast<double>(t.rounds)}});
  }
  b.set_objects("per_task", std::move(tasks));
}

}  // namespace

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv,
      {"FS", "sharded fabric engine: determinism + thread scaling", "fabric_scale"},
      [](pmsb::bench::BenchContext& ctx) {
        const std::vector<net::Topology> topos = {
            net::Topology{net::TopologyKind::kTorus2D, 4, 4},
            net::Topology{net::TopologyKind::kTorus2D, 8, 8},
        };
        const std::vector<unsigned> thread_counts = {1, 2, 4};

        Table delivery({"topology", "nodes", "cycles", "injected", "delivered", "dropped",
                        "mean latency", "delivered uid digest"});
        Table scaling({"topology", "threads", "wall s", "node-cycles/s", "speedup vs 1"});
        bool deterministic = true;

        for (const net::Topology& topo : topos) {
          std::vector<Run> runs;
          for (unsigned threads : thread_counts) {
            const auto fab = make_fabric(make_config(topo, ctx.seed, threads));
            const exp::WallTimer timer;
            fab->run(kCycles);
            runs.push_back(Run{fab->threads(), timer.seconds(), fab->stats(),
                               flight_p99_of(fab->merged_flight())});
            add_simulated_units(static_cast<std::uint64_t>(kCycles) * topo.nodes());
          }

          const fabric::FabricStats& ref = runs.front().stats;
          for (const Run& r : runs) {
            if (r.flight_p99 != runs.front().flight_p99) {
              std::fprintf(stderr,
                           "FAIL: %s merged flight-stage p99s diverged at %u threads\n",
                           topo.describe().c_str(), r.threads);
              deterministic = false;
            }
            if (r.stats.uid_digest != ref.uid_digest || r.stats.delivered != ref.delivered ||
                r.stats.dropped() != ref.dropped() ||
                r.stats.mean_latency != ref.mean_latency ||
                r.stats.latency.p999() != ref.latency.p999()) {
              std::fprintf(stderr,
                           "FAIL: %s diverged at %u threads "
                           "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                           topo.describe().c_str(), r.threads,
                           static_cast<unsigned long long>(r.stats.uid_digest),
                           static_cast<unsigned long long>(ref.uid_digest),
                           static_cast<unsigned long long>(r.stats.delivered),
                           static_cast<unsigned long long>(ref.delivered));
              deterministic = false;
            }
          }

          char digest[20];
          std::snprintf(digest, sizeof digest, "%016llx",
                        static_cast<unsigned long long>(ref.uid_digest));
          delivery.add_row({topo.describe(),
                            Table::integer(topo.nodes()),
                            Table::integer(static_cast<long long>(kCycles)),
                            Table::integer(static_cast<long long>(ref.injected)),
                            Table::integer(static_cast<long long>(ref.delivered)),
                            Table::integer(static_cast<long long>(ref.dropped())),
                            Table::num(ref.mean_latency, 1), digest});

          const double base_rate =
              static_cast<double>(kCycles) * topo.nodes() / runs.front().wall_seconds;
          for (const Run& r : runs) {
            const double rate =
                static_cast<double>(kCycles) * topo.nodes() / r.wall_seconds;
            scaling.add_row({topo.describe(), Table::integer(r.threads),
                             Table::num(r.wall_seconds, 3), Table::num(rate, 0),
                             Table::num(rate / base_rate, 2)});
            const std::string tag = topo.describe() + " t" + std::to_string(r.threads);
            ctx.json.runtime_metric(tag + " node-cycles/s", rate);
            if (r.threads != runs.front().threads)
              ctx.json.runtime_metric(tag + " speedup", rate / base_rate);
          }

          const std::string prefix = topo.describe();
          ctx.json.metric(prefix + " delivered", static_cast<double>(ref.delivered));
          ctx.json.metric(prefix + " dropped", static_cast<double>(ref.dropped()));
          ctx.json.metric(prefix + " mean latency", ref.mean_latency);
          ctx.json.metric(prefix + " payload errors",
                          static_cast<double>(ref.payload_errors));
        }

        std::printf("Delivery accounting (identical at every thread count):\n\n");
        delivery.print();

        // The big fabric's latency-by-distance profile: per-hop cost is the
        // D+1-cycle link plus store-and-forward and switch transit. This run
        // also carries the observability rig -- registry + time-series
        // sampler + flight recorders -- and is the bench's Perfetto source.
        // 4 workers so the trace has real per-shard tracks; every published
        // stat is thread-count-invariant.
        const auto big = make_fabric(make_config(topos.back(), ctx.seed, 4));
        obs::MetricsRegistry metrics;  // Declared before the sampler (lifetime).
        big->register_metrics(&metrics);
        obs::TimeSeriesSampler sampler(&metrics, /*capacity=*/256);
        big->run(kCycles);
        const fabric::FabricStats st = big->stats();
        Table hops({"hops", "cells", "mean latency"});
        for (const auto& row : st.by_hops) {
          if (row.cells == 0) continue;
          hops.add_row({Table::integer(row.hops),
                        Table::integer(static_cast<long long>(row.cells)),
                        Table::num(row.mean_latency, 1)});
        }
        std::printf("\nLatency by route length (%s):\n\n", topos.back().describe().c_str());
        hops.print();

        std::printf("\nWall-clock scaling (timing-dependent; lives in the runtime "
                    "object, not the determinism surface):\n\n");
        scaling.print();

        ctx.json.metric("throughput",
                        static_cast<double>(st.delivered) / static_cast<double>(kCycles));
        ctx.json.metric("mean_latency", st.mean_latency);
        ctx.json.metric("occupancy",
                        static_cast<double>(st.in_network) / topos.back().nodes());
        ctx.json.add_table("fabric delivery", delivery);
        ctx.json.add_table("latency by hops", hops);

        // Per-stage breakdown of the big fabric's node transit latency
        // (merged HDR histograms over all 64 switches, node order).
        const obs::FlightRecorder big_flight = big->merged_flight();
        Table stages({"stage", "samples", "mean", "p50", "p90", "p99", "p99.9"});
        for (unsigned s = 0; s < obs::kFlightStageCount; ++s) {
          const auto stage = static_cast<obs::FlightStage>(s);
          const HdrHistogram& h = big_flight.stage(stage);
          stages.add_row({obs::to_string(stage), std::to_string(h.samples()),
                          Table::num(h.mean(), 2), std::to_string(h.p50()),
                          std::to_string(h.p90()), std::to_string(h.p99()),
                          std::to_string(h.p999())});
          ctx.json.percentile_metrics(std::string("stage ") + obs::to_string(stage), h);
        }
        std::printf("\nPer-stage switch-transit latency, %s (cycles, merged over "
                    "all nodes):\n\n", topos.back().describe().c_str());
        stages.print();
        ctx.json.add_table("per-stage transit latency (big fabric)", stages);
        // End-to-end (injection -> ejection) percentiles from the merged
        // per-node delivery histograms.
        ctx.json.latency_percentiles(st.latency);
        ctx.json.set_timeseries(sampler.series());

        // Shard telemetry: wall-clock split per worker, and the transit-relay
        // share each shard carried. Timing-derived -> runtime object only.
        Table shard_t({"shard", "nodes", "active ms", "barrier ms", "rounds", "relayed"});
        for (const fabric::ShardTelemetry& sh : big->shard_telemetry()) {
          shard_t.add_row({Table::integer(sh.shard), Table::integer(sh.nodes),
                           Table::num(static_cast<double>(sh.active_ns) / 1e6, 2),
                           Table::num(static_cast<double>(sh.barrier_wait_ns) / 1e6, 2),
                           Table::integer(static_cast<long long>(sh.rounds)),
                           Table::integer(static_cast<long long>(sh.cells_relayed))});
          const std::string tag = "shard" + std::to_string(sh.shard);
          ctx.json.runtime_metric(tag + " active_ms",
                                  static_cast<double>(sh.active_ns) / 1e6);
          ctx.json.runtime_metric(tag + " barrier_ms",
                                  static_cast<double>(sh.barrier_wait_ns) / 1e6);
          ctx.json.runtime_metric(tag + " rounds", static_cast<double>(sh.rounds));
          ctx.json.runtime_metric(tag + " relayed",
                                  static_cast<double>(sh.cells_relayed));
        }
        ctx.json.runtime_metric("rounds_skipped",
                                static_cast<double>(big->rounds_skipped()));
        scheduler_block(ctx.json, "scheduler", *big);
        std::printf("\nShard telemetry for the instrumented %s run (one row per "
                    "task; wall clock; runtime object only):\n\n",
                    topos.back().describe().c_str());
        shard_t.print();

        {
          const std::string trace = ctx.json.trace_path();
          if (!trace.empty()) {
            obs::PerfettoTrace tr;
            sampler.to_perfetto(tr);       // Component counter tracks.
            big->telemetry_to_perfetto(tr); // Worker tracks (tid >= 1000).
            tr.write(trace);
            std::printf("\n[trace] wrote %s\n", trace.c_str());
          }
        }

        // --- Low-load idle skipping -------------------------------------
        // A sparse 8x8 torus (arrivals minutes apart in simulated time) run
        // twice: skipping forced off, then on. Every stat must be
        // bit-identical -- the wall time per node-cycle of each run is
        // the quiescence payoff and goes into the runtime object only.
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 8, 8};
          const Cycle low_cycles = 300000;
          auto low_cfg = [&](int idle_skip) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, 1);
            cfg.load = 3e-5;
            cfg.idle_skip = idle_skip;
            return cfg;
          };
          const auto stepped = make_fabric(low_cfg(0));
          const exp::WallTimer t_off;
          stepped->run(low_cycles);
          const double wall_off = t_off.seconds();
          const auto skipping = make_fabric(low_cfg(1));
          const exp::WallTimer t_on;
          skipping->run(low_cycles);
          const double wall_on = t_on.seconds();
          add_simulated_units(2 * static_cast<std::uint64_t>(low_cycles) * topo.nodes());

          const fabric::FabricStats a = stepped->stats();
          const fabric::FabricStats b = skipping->stats();
          if (a.uid_digest != b.uid_digest || a.injected != b.injected ||
              a.delivered != b.delivered || a.dropped() != b.dropped() ||
              a.backlog != b.backlog || a.in_network != b.in_network ||
              a.mean_latency != b.mean_latency || a.min_latency != b.min_latency ||
              a.max_latency != b.max_latency) {
            std::fprintf(stderr,
                         "FAIL: idle skipping changed low-load results "
                         "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                         static_cast<unsigned long long>(a.uid_digest),
                         static_cast<unsigned long long>(b.uid_digest),
                         static_cast<unsigned long long>(a.delivered),
                         static_cast<unsigned long long>(b.delivered));
            deterministic = false;
          }
          // Each path's own cost: a stepped/skipping ratio would read worse
          // whenever stepping got cheaper.
          const double node_cycles = static_cast<double>(low_cycles) * topo.nodes();
          const double ns_off = wall_off * 1e9 / node_cycles;
          const double ns_on = wall_on * 1e9 / node_cycles;
          std::printf("\nLow-load idle skipping (%s, load %.0e, %lld cycles): "
                      "stepped %.3fs (%.2f ns/node-cycle), skipping %.3fs "
                      "(%.2f ns/node-cycle); results identical: %s\n",
                      topo.describe().c_str(), 3e-5, static_cast<long long>(low_cycles),
                      wall_off, ns_off, wall_on, ns_on,
                      a.uid_digest == b.uid_digest ? "yes" : "NO");
          ctx.json.metric("low-load delivered", static_cast<double>(a.delivered));
          ctx.json.metric("low-load injected", static_cast<double>(a.injected));
          ctx.json.metric("low-load mean latency", a.mean_latency);
          ctx.json.runtime_metric("low_load_skip_off_wall_s", wall_off);
          ctx.json.runtime_metric("low_load_skip_on_wall_s", wall_on);
          ctx.json.runtime_metric("low_load_skip_off_ns_per_node_cycle", ns_off);
          ctx.json.runtime_metric("low_load_skip_on_ns_per_node_cycle", ns_on);
        }

        // --- Mixed cycle-accurate / fast-model fabric -------------------
        // Checkerboard model selection on the 4x4 torus: the determinism
        // contract must hold for heterogeneous fabrics too.
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
          auto mixed_cfg = [&](unsigned threads) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, threads);
            cfg.fast_node = [](unsigned node) { return node % 2 == 1; };
            return cfg;
          };
          const auto m1 = make_fabric(mixed_cfg(1));
          const auto m4 = make_fabric(mixed_cfg(4));
          m1->run(kCycles);
          m4->run(kCycles);
          add_simulated_units(2 * static_cast<std::uint64_t>(kCycles) * topo.nodes());
          const fabric::FabricStats a = m1->stats();
          const fabric::FabricStats b = m4->stats();
          if (a.uid_digest != b.uid_digest || a.delivered != b.delivered ||
              a.dropped() != b.dropped() || a.mean_latency != b.mean_latency) {
            std::fprintf(stderr,
                         "FAIL: mixed fast-node fabric diverged across threads "
                         "(digest %016llx vs %016llx)\n",
                         static_cast<unsigned long long>(a.uid_digest),
                         static_cast<unsigned long long>(b.uid_digest));
            deterministic = false;
          }
          std::printf("\nMixed fast/cycle-accurate fabric (%s, odd nodes fast): "
                      "delivered %llu, digest %016llx, t1 == t4: %s\n",
                      topo.describe().c_str(),
                      static_cast<unsigned long long>(a.delivered),
                      static_cast<unsigned long long>(a.uid_digest),
                      a.uid_digest == b.uid_digest ? "yes" : "NO");
          ctx.json.metric("mixed delivered", static_cast<double>(a.delivered));
          ctx.json.metric("mixed dropped", static_cast<double>(a.dropped()));
          ctx.json.metric("mixed mean latency", a.mean_latency);
        }

        // --- Imbalanced load ---------------------------------------------
        // An 8x8 torus where only the top-left 4x4 quadrant runs the
        // cycle-accurate switch (the rest use the fast model): a round
        // barrier's worst case, as every round 3/4 of the fabric would wait
        // for the expensive quadrant. Tasks wait only for their neighbors,
        // so cheap nodes run ahead up to the channel credit, and the
        // rebalancer splits hot tasks between runs. Every published stat
        // stays bit-identical across thread counts (the bench FAILS
        // otherwise); the wall times go to the runtime object.
        {
          const net::Topology topo{net::TopologyKind::kTorus2D, 8, 8};
          const Cycle hot_cycles = 4000;
          auto hot_cfg = [&](unsigned threads) {
            fabric::FabricConfig cfg = make_config(topo, ctx.seed, threads);
            cfg.flight_recorder = false;
            // Hot quadrant: x < 4 && y < 4 cycle-accurate, the rest fast.
            cfg.fast_node = [](unsigned node) {
              return !(node % 8 < 4 && node / 8 < 4);
            };
            return cfg;
          };
          struct HotRun {
            std::string label;
            double wall_seconds = 0;
            fabric::FabricStats stats;
          };
          std::vector<HotRun> hot_runs;
          Table hot_t({"run", "wall s", "delivered", "digest", "blocked/wait ms"});
          for (const unsigned threads : {1u, 4u}) {
            HotRun& r = hot_runs.emplace_back();
            r.label = "t" + std::to_string(threads);
            const auto fab = make_fabric(hot_cfg(threads));
            const exp::WallTimer timer;
            fab->run(hot_cycles);
            r.wall_seconds = timer.seconds();
            r.stats = fab->stats();
            add_simulated_units(static_cast<std::uint64_t>(hot_cycles) * topo.nodes());
            double stall_ms = 0;
            for (const fabric::ShardTelemetry& sh : fab->shard_telemetry())
              stall_ms += static_cast<double>(sh.barrier_wait_ns + sh.blocked_on_empty_ns +
                                              sh.blocked_on_full_ns) /
                          1e6;
            char digest[20];
            std::snprintf(digest, sizeof digest, "%016llx",
                          static_cast<unsigned long long>(r.stats.uid_digest));
            hot_t.add_row({r.label, Table::num(r.wall_seconds, 3),
                           Table::integer(static_cast<long long>(r.stats.delivered)),
                           digest, Table::num(stall_ms, 1)});
            ctx.json.runtime_metric("hotspot " + r.label + " wall_s", r.wall_seconds);
            ctx.json.runtime_metric("hotspot " + r.label + " stall_ms", stall_ms);
            if (threads == 4) scheduler_block(ctx.json, "scheduler_hotspot", *fab);
          }
          const fabric::FabricStats& ref = hot_runs.front().stats;
          for (const HotRun& r : hot_runs) {
            if (r.stats.uid_digest != ref.uid_digest || r.stats.delivered != ref.delivered ||
                r.stats.dropped() != ref.dropped() ||
                r.stats.mean_latency != ref.mean_latency ||
                r.stats.latency.p999() != ref.latency.p999()) {
              std::fprintf(stderr,
                           "FAIL: hotspot fabric diverged on %s "
                           "(digest %016llx vs %016llx)\n",
                           r.label.c_str(), static_cast<unsigned long long>(r.stats.uid_digest),
                           static_cast<unsigned long long>(ref.uid_digest));
              deterministic = false;
            }
          }
          std::printf("\nImbalanced load (%s, hot 4x4 quadrant cycle-accurate, rest "
                      "fast):\n\n", topo.describe().c_str());
          hot_t.print();
          ctx.json.metric("hotspot delivered", static_cast<double>(ref.delivered));
          ctx.json.metric("hotspot dropped", static_cast<double>(ref.dropped()));
          ctx.json.metric("hotspot mean latency", ref.mean_latency);
          ctx.json.metric("hotspot p999 latency",
                          static_cast<double>(ref.latency.p999()));
        }

        if (!deterministic) return 1;
        std::printf("\nDeterminism: delivered-cell digests identical across "
                    "{1, 2, 4} threads on every topology.\n");
        return 0;
      });
}
