// MW -- minimal wormhole fabric: flit-level multistage networks
// (banyan / omega / Clos) of 2x2 and kxk WormRouter elements with virtual
// channels and credit backpressure (src/fabric/worm.*), built through the
// unified fabric::Fabric::build(topology, config) path.
//
// The headline experiment is the classic [Dally90] virtual-channel result
// reproduced on the banyan: saturation throughput (flits per endpoint per
// cycle at offered load 0.95) as a function of the lane count, under
// uniform traffic and under tree saturation (hotsenders: 25% of the
// endpoints stream exclusively at one egress, the rest carry innocent
// uniform background). The saturated hot tree parks stalled worms across
// the shared inter-stage links; splitting each buffer into more lanes lets
// the background overtake them, so throughput must rise with lanes -- the
// bench FAILS if the 4-lane hotspot point does not beat the 1-lane point,
// and CI asserts the same from the JSON artifact.
//
// Determinism: every table is printed from a threads=1 reference run; a
// second run at the resolved thread count (--threads / PMSB_THREADS) must
// match it digest-for-digest or the bench FAILS. Stdout therefore never
// depends on the thread count, and the determinism CI diffs it byte for
// byte across {1, 4} threads x {barrier, dataflow} engines.
//
// This bench absorbs the old examples/banyan_fabric.cpp demo: the load
// sweep at the end shows the same "shared buffers absorb internal
// contention" story, now at flit granularity with lossless backpressure
// instead of crosspoint drops.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "fabric/fabric.hpp"
#include "net/topology.hpp"

using namespace pmsb;
using namespace pmsb::bench;

namespace {

constexpr Cycle kWarmup = 2000;
constexpr Cycle kMeasure = 20000;
constexpr unsigned kEndpoints = 32;  ///< Headline banyan size (5 stages).

fabric::FabricConfig worm_config(const net::Topology& topo, std::uint64_t seed,
                                 unsigned lanes, const std::string& traffic) {
  fabric::FabricConfig cfg;
  cfg.topo = topo;
  // D = 1 keeps the credit round trip (2 * (D + 1) cycles) small relative
  // to the per-lane depth, so credits -- not the wire -- set the pace.
  cfg.link_pipe_stages = 1;
  cfg.seed = seed;
  cfg.lanes = lanes;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = traffic;
  return cfg;
}

struct Point {
  double throughput = 0;  ///< Flits / endpoint / cycle, post-warmup window.
  fabric::FabricStats stats;
};

Point run_point(const fabric::FabricConfig& cfg, unsigned threads) {
  fabric::FabricConfig c = cfg;
  c.threads = threads;
  auto fab = fabric::Fabric::build(c.topo, c);
  fab->run(kWarmup);
  const std::uint64_t warm_flits = fab->stats().flits_delivered;
  fab->run(kMeasure);
  Point p;
  p.stats = fab->stats();
  p.throughput = static_cast<double>(p.stats.flits_delivered - warm_flits) /
                 (static_cast<double>(c.topo.endpoints()) * static_cast<double>(kMeasure));
  add_simulated_units(static_cast<std::uint64_t>(kWarmup + kMeasure) * c.topo.nodes());
  return p;
}

/// Reference (threads=1) run plus a resolved-thread-count rerun; FAILs and
/// clears *deterministic when any published stat diverges. Every printed
/// number comes from the reference run.
Point run_checked(const fabric::FabricConfig& cfg, const char* label, bool* deterministic) {
  const Point ref = run_point(cfg, 1);
  const Point multi = run_point(cfg, 0);  // 0 = resolved PMSB_THREADS / --threads.
  const fabric::FabricStats& a = ref.stats;
  const fabric::FabricStats& b = multi.stats;
  if (a.uid_digest != b.uid_digest || a.injected != b.injected ||
      a.delivered != b.delivered || a.flits_delivered != b.flits_delivered ||
      a.backlog != b.backlog || a.mean_latency != b.mean_latency ||
      a.latency.p999() != b.latency.p999()) {
    std::fprintf(stderr,
                 "FAIL: %s diverged across thread counts "
                 "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                 label, static_cast<unsigned long long>(a.uid_digest),
                 static_cast<unsigned long long>(b.uid_digest),
                 static_cast<unsigned long long>(a.delivered),
                 static_cast<unsigned long long>(b.delivered));
    *deterministic = false;
  }
  if (a.payload_errors != 0) {
    std::fprintf(stderr, "FAIL: %s delivered %llu corrupted flit payloads\n", label,
                 static_cast<unsigned long long>(a.payload_errors));
    *deterministic = false;
  }
  return ref;
}

std::string digest_str(std::uint64_t d) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv,
      {"MW", "flit-level wormhole multistage fabrics: lanes vs saturation", "min_wormhole"},
      [](pmsb::bench::BenchContext& ctx) {
        const net::Topology banyan{net::TopologyKind::kBanyan, kEndpoints, 1};
        const std::vector<unsigned> lane_sweep = {1, 2, 4, 8};
        bool ok = true;

        // --- Saturation throughput vs virtual-channel count -------------
        // Offered 0.95 flits/endpoint/cycle drives the fabric past its
        // blocking limit; what it carries is the saturation throughput.
        struct Workload {
          const char* tag;    ///< Metric key prefix.
          const char* spec;   ///< traffic::GeneratorSpec text.
        };
        const Workload workloads[] = {{"uniform", "uniform:0.95"},
                                      {"hotspot", "hotsenders:0.25,0.95"}};
        Table sat({"workload", "lanes", "throughput", "messages", "mean lat", "p99 lat",
                   "delivered digest"});
        double hotspot_by_lanes[9] = {};  // Indexed by lane count.
        Point headline;  // Uniform run at the widest lane count.
        for (const Workload& w : workloads) {
          for (unsigned lanes : lane_sweep) {
            const fabric::FabricConfig cfg =
                worm_config(banyan, ctx.seed, lanes, w.spec);
            const std::string label =
                std::string(w.tag) + " lanes=" + std::to_string(lanes);
            const Point p = run_checked(cfg, label.c_str(), &ok);
            sat.add_row({w.tag, Table::integer(lanes), Table::num(p.throughput, 4),
                         Table::integer(static_cast<long long>(p.stats.delivered)),
                         Table::num(p.stats.mean_latency, 1),
                         Table::integer(static_cast<long long>(p.stats.latency.p99())),
                         digest_str(p.stats.uid_digest)});
            ctx.json.metric(std::string(w.tag) + "_sat_lanes" + std::to_string(lanes),
                            p.throughput);
            if (w.tag == std::string("hotspot")) hotspot_by_lanes[lanes] = p.throughput;
            if (w.tag == std::string("uniform")) headline = p;
          }
        }
        std::printf("Saturation throughput vs lanes (%s, offered 0.95 "
                    "flits/endpoint/cycle,\n8-flit messages, 16-flit buffers split "
                    "across lanes, D=1 links):\n\n",
                    banyan.describe().c_str());
        sat.print();
        ctx.json.add_table("saturation vs lanes", sat);

        // The virtual-channel claim, enforced: under the hotspot, 4 lanes
        // must carry strictly more than 1 lane (CI re-asserts this from
        // the JSON artifact).
        if (hotspot_by_lanes[4] <= hotspot_by_lanes[1]) {
          std::fprintf(stderr,
                       "FAIL: hotspot saturation did not improve with lanes "
                       "(lanes=1: %.4f, lanes=4: %.4f)\n",
                       hotspot_by_lanes[1], hotspot_by_lanes[4]);
          ok = false;
        } else {
          std::printf("\nVirtual-channel payoff (hotspot): lanes=1 %.4f -> "
                      "lanes=4 %.4f flits/endpoint/cycle.\n",
                      hotspot_by_lanes[1], hotspot_by_lanes[4]);
        }

        // --- Topology sanity: one build path, three networks ------------
        // Same config, three multistage kinds through Fabric::build().
        // Lossless transport means injected == delivered + backlog +
        // in-network at all times (stats() checks conservation itself);
        // here we additionally require actual delivery on every kind.
        const std::vector<net::Topology> kinds = {
            net::Topology{net::TopologyKind::kBanyan, 16, 1},
            net::Topology{net::TopologyKind::kOmega, 16, 1},
            net::Topology{net::TopologyKind::kClos, 16, 1, /*radix=*/4},
        };
        Table topo_t({"topology", "nodes", "stages", "messages", "mean lat",
                      "delivered digest"});
        for (const net::Topology& topo : kinds) {
          fabric::FabricConfig cfg = worm_config(topo, ctx.seed, /*lanes=*/2, "uniform:0.6");
          const Point p = run_checked(cfg, topo.describe().c_str(), &ok);
          if (p.stats.delivered == 0) {
            std::fprintf(stderr, "FAIL: %s delivered nothing\n", topo.describe().c_str());
            ok = false;
          }
          topo_t.add_row({topo.describe(), Table::integer(topo.nodes()),
                          Table::integer(topo.stages()),
                          Table::integer(static_cast<long long>(p.stats.delivered)),
                          Table::num(p.stats.mean_latency, 1),
                          digest_str(p.stats.uid_digest)});
          ctx.json.metric(topo.describe() + " delivered",
                          static_cast<double>(p.stats.delivered));
          ctx.json.metric(topo.describe() + " mean latency", p.stats.mean_latency);
        }
        std::printf("\nOne construction path, three multistage kinds "
                    "(uniform:0.6, 2 lanes):\n\n");
        topo_t.print();
        ctx.json.add_table("topology sanity", topo_t);

        // --- Load sweep (the old banyan_fabric example, flit-level) -----
        // Below saturation the fabric is lossless and carried == offered;
        // past it, backpressure holds the excess at the sources instead of
        // dropping it inside the network.
        Table sweep({"offered", "carried", "mean lat", "p99 lat", "backlog msgs"});
        for (double load : {0.2, 0.4, 0.6, 0.8, 0.95}) {
          char spec[32];
          std::snprintf(spec, sizeof spec, "uniform:%.2f", load);
          const fabric::FabricConfig cfg = worm_config(banyan, ctx.seed, /*lanes=*/4, spec);
          const std::string label = std::string("sweep ") + spec;
          const Point p = run_checked(cfg, label.c_str(), &ok);
          sweep.add_row({Table::num(load, 2), Table::num(p.throughput, 4),
                         Table::num(p.stats.mean_latency, 1),
                         Table::integer(static_cast<long long>(p.stats.latency.p99())),
                         Table::integer(static_cast<long long>(p.stats.backlog))});
          char key[40];
          std::snprintf(key, sizeof key, "carried at %.2f", load);
          ctx.json.metric(key, p.throughput);
        }
        std::printf("\nLoad sweep (%s, 4 lanes): lossless backpressure holds "
                    "excess at the sources:\n\n", banyan.describe().c_str());
        sweep.print();
        ctx.json.add_table("load sweep", sweep);

        ctx.json.metric("throughput", headline.throughput);
        ctx.json.metric("mean_latency", headline.stats.mean_latency);
        ctx.json.metric("occupancy",
                        static_cast<double>(headline.stats.in_network) /
                            static_cast<double>(banyan.nodes()));
        ctx.json.latency_percentiles(headline.stats.latency);

        if (!ok) return 1;
        // No thread count or engine name here: stdout must stay
        // byte-identical across the determinism CI matrix (both are on the
        // stderr [bench-config] banner).
        std::printf("\nDeterminism: every run reproduced its threads=1 "
                    "reference digests at the resolved thread count; zero "
                    "payload errors.\n");
        return 0;
      });
}
