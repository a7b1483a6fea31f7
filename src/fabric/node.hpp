// The one node interface the fabric engine schedules (src/fabric/fabric.cpp).
//
// A fabric node is whatever one topology vertex simulates: a cell node
// (CellNode, src/fabric/bridge.hpp -- a switch with its link bridges and
// traffic endpoints) or a flit-level WormRouter (src/fabric/worm.hpp). The
// engine only attaches a node's components to an Engine, reads its counters at
// round boundaries and folds its sinks into the end-of-run FabricStats; it
// never sees cells or flits. Links between nodes are not part of a node: each
// transport constructor also emits one (producer, consumer, ring) edge per
// channel ring, and the engine derives its wiring from that edge list.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"

namespace pmsb::fabric {

/// Aggregated end-of-run accounting, merged over nodes in index order.
/// Cell fabrics count cells; wormhole fabrics count messages (and report
/// flits_delivered besides).
struct FabricStats {
  Cycle cycles = 0;
  std::uint64_t injected = 0;   ///< Cells/messages generated (incl. still queued).
  std::uint64_t delivered = 0;
  std::uint64_t flits_delivered = 0;  ///< Wormhole fabrics only.
  std::uint64_t payload_errors = 0;
  std::uint64_t dropped_no_addr = 0;
  std::uint64_t dropped_no_slot = 0;
  std::uint64_t dropped_out_limit = 0;
  std::uint64_t backlog = 0;     ///< Generated but not yet on the wire.
  std::uint64_t in_network = 0;  ///< On the wire or buffered in a switch/bridge.
  std::uint64_t uid_digest = 0;  ///< Node-order mix of per-node delivery digests.
  double mean_latency = 0;       ///< Injection -> ejection, delivered cells.
  Cycle min_latency = 0;
  Cycle max_latency = 0;
  /// Full latency distribution (merged per-node HDR histograms, node order):
  /// exact p50/p90/p99/p99.9 at any thread count.
  HdrHistogram latency;

  struct HopRow {
    unsigned hops;
    std::uint64_t cells;
    double mean_latency;
  };
  std::vector<HopRow> by_hops;  ///< Cell fabrics only: deliveries by route length.

  std::uint64_t dropped() const {
    return dropped_no_addr + dropped_no_slot + dropped_out_limit;
  }
};

/// A node's cumulative counters: its share of the fabric-wide gauges and of
/// its task's relay telemetry.
struct NodeCounts {
  std::uint64_t generated = 0;  ///< Cells/messages created by this node's sources.
  std::uint64_t backlog = 0;    ///< Of those, not yet on the wire.
  std::uint64_t delivered = 0;  ///< Cells/messages delivered by this node's sinks.
  std::uint64_t dropped = 0;
  std::uint64_t lat_sum = 0;    ///< Sum of the delivered latencies.
  std::uint64_t relayed = 0;    ///< Transit cells relayed / flits forwarded.

  NodeCounts& operator+=(const NodeCounts& o) {
    generated += o.generated;
    backlog += o.backlog;
    delivered += o.delivered;
    dropped += o.dropped;
    lat_sum += o.lat_sum;
    relayed += o.relayed;
    return *this;
  }
};

class FabricNode {
 public:
  virtual ~FabricNode() = default;

  /// Add this node's components (and any cycle observer) to `eng` in their
  /// stepping order. Called once, at build, on the node's own Engine.
  virtual void attach(Engine& eng) = 0;

  /// Read by the thread holding the node's task at a round boundary, or
  /// between runs.
  virtual NodeCounts counts() const = 0;

  /// Add this node's sinks (and drop counters) into `st`. Called in node
  /// order, so digests and histograms merge identically under any
  /// partition. The caller adds the counts() totals and derives
  /// mean_latency and in_network; by_hops rows accumulate latency sums in
  /// mean_latency until the caller divides them by cells.
  virtual void fold(FabricStats& st) const = 0;
};

}  // namespace pmsb::fabric
