// cluster_lan: a small Telegraphos-style LAN -- EIGHT 2x2 pipelined-memory
// switches on a ring (the paper's context: "switches ... enable parallel
// processing on workstations clustered through gigabit LANs", section 4) --
// expressed on the sharded fabric engine (src/fabric/).
//
//   [ sw0 ] <-> [ sw1 ] <-> [ sw2 ] <-> ... <-> [ sw7 ] <-> (wraps to sw0)
//
// Each node's hosts statistically share the node's injection point: cells
// board idle slots on the ring, carry their destination node in the head
// word's tag bits, and every PortBridge rewrites the hop field on the fly
// by a lookup in its node's routing table (hop-by-hop translation, the
// Telegraphos RT block of figure 6). The fabric verifies payload integrity
// end to end and accounts latency per route length.
//
// Because the whole LAN runs on the fabric engine, it also demonstrates the
// engine's determinism contract for free: the run is repeated sharded
// across 2 worker threads and must reproduce the single-thread delivery
// digest bit for bit.

#include <cstdio>
#include <memory>

#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "stats/table.hpp"

using namespace pmsb;

namespace {

/// The one public construction path: Fabric::build(topology, config).
std::unique_ptr<fabric::Fabric> make_fabric(const fabric::FabricConfig& cfg) {
  return fabric::Fabric::build(cfg.topo, cfg);
}

fabric::FabricConfig lan_config(unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kRing, 8, 1};
  cfg.node = SwitchConfig::for_ports(2);  // 2x2: left ring port, right ring port.
  cfg.link_pipe_stages = 2;               // Short LAN links: 3-cycle wires.
  cfg.load = 0.5;                         // Per-node offered load.
  cfg.seed = 2026;
  cfg.threads = threads;
  return cfg;
}

}  // namespace

int main() {
  const Cycle kCycles = 60000;
  const fabric::FabricConfig cfg = lan_config(1);

  std::printf("Telegraphos-style LAN: %s of 2x2 switches (%s),\n"
              "per-node load %.2f on the fabric engine.\n\n",
              cfg.topo.describe().c_str(), cfg.node.describe().c_str(), cfg.load);

  obs::MetricsRegistry metrics;
  const auto lan = make_fabric(cfg);
  lan->register_metrics(&metrics);
  lan->run(kCycles);
  const fabric::FabricStats st = lan->stats();

  Table t({"hops (switches)", "cells", "lat min possible", "lat mean"});
  for (const auto& row : st.by_hops) {
    if (row.cells == 0) continue;
    t.add_row({Table::integer(row.hops), Table::integer(static_cast<long long>(row.cells)),
               Table::integer(static_cast<long long>(
                   row.hops * (cfg.link_pipe_stages + 1) + cfg.node.cell_words)),
               Table::num(row.mean_latency, 1)});
  }
  t.print();

  std::printf("\nTotals: injected %llu, delivered %llu, in network %llu, backlog %llu,\n"
              "switch drops %llu; mean latency %.1f cycles (peak in-network occupancy "
              "%.0f cells).\n",
              static_cast<unsigned long long>(st.injected),
              static_cast<unsigned long long>(st.delivered),
              static_cast<unsigned long long>(st.in_network),
              static_cast<unsigned long long>(st.backlog),
              static_cast<unsigned long long>(st.dropped()), st.mean_latency,
              metrics.find_gauge("fabric.in_network")->max);
  std::printf("Integrity: %llu payload errors.\n",
              static_cast<unsigned long long>(st.payload_errors));

  // Same LAN, sharded across two workers: the delivery record must be
  // bit-identical (conservative lookahead = link_pipe_stages).
  const auto sharded = make_fabric(lan_config(2));
  sharded->run(kCycles);
  const bool deterministic = sharded->stats().uid_digest == st.uid_digest &&
                             sharded->stats().delivered == st.delivered;
  std::printf("\nDeterminism: 2-thread rerun %s the single-thread digest %016llx.\n",
              deterministic ? "reproduces" : "DIVERGES FROM",
              static_cast<unsigned long long>(st.uid_digest));

  std::printf(
      "\nReading: neighbour traffic cuts through in one link + one switch; each\n"
      "extra ring hop adds a store-and-forward relay. This is the paper's LAN\n"
      "use case: bursts from the hosts behind each switch statistically share\n"
      "one buffer pool per node while every ring link stays busy.\n");
  return (st.payload_errors || !deterministic) ? 1 : 0;
}
