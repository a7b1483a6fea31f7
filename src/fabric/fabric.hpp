// Sharded multi-switch fabric engine: a whole net::Topology of nodes,
// partitioned across worker threads, with a hard determinism contract --
// delivered cells, drops, latencies and every published metric are
// bit-identical at any thread count and under any partition of the nodes.
//
// One core serves both transports. A transport constructor builds one
// FabricNode per topology vertex (src/fabric/node.hpp) -- a CellNode on the
// torus and ring (a switch with its PortBridges, TxTaps and endpoints,
// src/fabric/bridge.hpp), a flit-level WormRouter on the mesh and the
// multistage kinds (src/fabric/worm.hpp) -- and one (producer, consumer,
// ring) edge per channel ring: one per directed cell link, or a data edge
// u -> v plus a credit edge v -> u per wormhole link. ALL inter-node
// traffic -- including between nodes of the same task -- goes through
// those rings, so the simulated wiring does not depend on the partition.
// The engine sees only nodes and edges, never cells or flits.
//
// Inter-node links have `link_pipe_stages` (D >= 1) register stages: a word
// leaving a node cannot be observed anywhere else for at least D + 1
// cycles. The nodes are partitioned into tasks (src/fabric/task.hpp), one
// contiguous block per worker at the start, run by a work-stealing
// Scheduler (src/fabric/scheduler.hpp). A task steps its nodes in lockstep,
// node after node, in chunks of at most D cycles, so no node reads a ring
// slot written in the same chunk. Only the edges that cross into another
// task bound it: it may run to upstream_done + D (its inputs for those
// cycles are already in the rings) and to downstream_done + capacity - D
// (write credit). Blocked, a task waits briefly for its neighbors, then
// hands its worker back and is woken by the neighbor that moves it. With
// one task this is a plain lockstep loop; with one task per worker, a round
// barrier with the global wait replaced by pairwise ones, so a slow node
// stalls only its neighborhood. Metric samples are assembled at every round
// boundary (each D cycles) from per-task contributions. Between run() calls
// the partition is rebalanced from measured task costs; placement never
// changes results. See DESIGN.md "Fabric & parallel simulation" for the
// correctness argument.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "exp/thread_pool.hpp"
#include "fabric/bridge.hpp"
#include "fabric/channel.hpp"
#include "fabric/node.hpp"
#include "fabric/worm.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace pmsb::obs {
class PerfettoTrace;
}

namespace pmsb::fabric {

struct FabricConfig {
  net::Topology topo;
  /// Per-node switch geometry (torus and ring only; the mesh and the
  /// multistage kinds run flit-level WormRouters and ignore this). Needs
  /// n_ports >= topo.required_ports(), word_bits >= 16 and cell_words >= 4
  /// (fabric wire format), and a head tag wide enough for a node id.
  /// SwitchConfig::for_ports() qualifies.
  SwitchConfig node = SwitchConfig::for_ports(4);
  /// D: register stages on every inter-node link (latency D + 1 cycles).
  /// Doubles as the engines' synchronization lookahead.
  unsigned link_pipe_stages = 4;
  /// Offered load per node as a fraction of one link's cell rate.
  double load = 0.5;
  std::uint64_t seed = 1;
  /// Worker threads; 0 resolves via exp::thread_count() (PMSB_THREADS).
  /// Clamped to the node count. The fabric starts with one task per worker
  /// and repartitions between run() calls (splits tasks that dominated the
  /// last run's active_ns, merges starved ones); the partition never
  /// changes results.
  unsigned threads = 0;
  /// Idle-cycle skipping: when a task's nodes are all quiescent and no flit
  /// is in flight on the rings they read, the task jumps to its earliest
  /// scheduled wake instead of stepping, as far as its neighbor tasks and
  /// the metrics boundary allow. Results are bit-identical either way
  /// (CI-enforced). -1 = environment default (PMSB_IDLE_SKIP), 0 = off,
  /// 1 = on.
  int idle_skip = -1;
  /// Per-node model selection: nodes for which this returns true run the
  /// behavioural FastSwitch (core/fast_switch.hpp) instead of the
  /// cycle-accurate PipelinedSwitch -- cold nodes fast, hot nodes exact.
  /// Null (default) = all nodes cycle-accurate. Must be a pure function of
  /// the node index (determinism).
  std::function<bool(unsigned node)> fast_node;
  /// Attach a per-node obs::FlightRecorder (per-stage latency breakdown;
  /// merged across nodes via Fabric::merged_flight()). Event counting is the
  /// only added per-cell cost; off by default.
  bool flight_recorder = false;
  /// Cells whose head arrived before this cycle are excluded from the
  /// flight recorders.
  Cycle flight_warmup = 0;

  // --- Wormhole transport (mesh and multistage topologies only) -----------
  /// Virtual channels (lanes) per router port, 1..32; must divide
  /// buffer_flits.
  unsigned lanes = 1;
  /// Flit buffering per router input port, split evenly across lanes
  /// (lane_depth = buffer_flits / lanes = per-lane credits).
  unsigned buffer_flits = 16;
  /// Flits per message (head..tail).
  unsigned message_flits = 8;
  /// Workload spec (traffic::GeneratorSpec grammar, e.g. "uniform:0.8",
  /// "hotspot:0.25"). Both transports run every destination kind through
  /// Bernoulli arrivals; "bursty" and "pareto" are rejected (slot level
  /// only). A cell fabric node never addresses itself (see traffic/spec.hpp
  /// for the per-kind rule). A spec-embedded load overrides `load`.
  std::string traffic = "uniform";

  ConfigValidation check() const;
  void validate() const;
};

/// Wall-clock accounting for one scheduler task of the run so far.
/// Telemetry is timing-derived, so it belongs in the BENCH JSON "runtime"
/// block only (the determinism diffs strip it); nodes and cells_relayed are
/// deterministic per task *given* a partition, but the partition itself
/// changes with PMSB_THREADS and rebalancing.
struct ShardTelemetry {
  unsigned shard = 0;           ///< Task index.
  unsigned nodes = 0;           ///< Nodes owned by this task.
  std::uint64_t active_ns = 0;  ///< Wall time advancing the simulation.
  /// Waiting inside a slice for a neighbor task to catch up: the pairwise
  /// form of a round barrier's wait.
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t blocked_on_empty_ns = 0;  ///< Parked, starved of upstream data.
  std::uint64_t blocked_on_full_ns = 0;   ///< Parked, out of downstream credit.
  std::uint64_t steals = 0;     ///< Times this task ran on a thief.
  std::uint64_t rounds = 0;     ///< Chunks stepped (skipped excluded).
  /// Transit cells relayed (cell fabrics) or flits forwarded onto
  /// links (wormhole fabrics) by this task's nodes.
  std::uint64_t cells_relayed = 0;
};

/// Scheduling-layer accounting for the run so far (BENCH JSON
/// runtime.scheduler block).
struct FabricSchedulerStats {
  unsigned workers = 0;
  unsigned tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;   ///< Rebalance: hot tasks split.
  std::uint64_t merges = 0;   ///< Rebalance: cold task pairs merged.
  struct Worker {
    std::uint64_t active_ns = 0;
    std::uint64_t idle_ns = 0;  ///< Neighbor wait, steal hunt and parked.
    std::uint64_t steals = 0;
    std::uint64_t slices = 0;
  };
  std::vector<Worker> per_worker;
  /// Human-readable rebalance decisions, in order ("split task 3 ...").
  std::vector<std::string> rebalance_log;
};

class Fabric {
 public:
  /// THE construction path: build a fabric of `topo`'s shape with the given
  /// configuration (cfg.topo is overridden by `topo`). The transport
  /// follows the topology kind: the torus and ring get cell-granular
  /// PipelinedSwitch nodes; the mesh (XY-routed, 5-port routers) and the
  /// multistage kinds (banyan/omega/clos) get flit-level wormhole routers.
  /// Throws std::invalid_argument on an invalid configuration.
  static std::unique_ptr<Fabric> build(const net::Topology& topo, const FabricConfig& cfg);

  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  unsigned nodes() const { return cfg_.topo.nodes(); }
  unsigned threads() const { return workers_; }
  Cycle now() const { return cycles_run_; }
  const FabricConfig& config() const { return cfg_; }
  /// True when this fabric runs flit-level wormhole transport (mesh or
  /// multistage topology); the node_*switch accessors below are
  /// cell-fabric-only.
  bool wormhole() const { return worm_; }
  bool node_is_fast(unsigned i) const { return cell(i).fast != nullptr; }
  const PipelinedSwitch& node_switch(unsigned i) const {
    PMSB_CHECK(cell(i).sw != nullptr, "node runs the fast model (see node_is_fast)");
    return *cell(i).sw;
  }
  const FastSwitch& node_fast_switch(unsigned i) const {
    PMSB_CHECK(cell(i).fast != nullptr, "node runs the cycle-accurate switch");
    return *cell(i).fast;
  }
  const WormRouter& node_router(unsigned i) const {
    PMSB_CHECK(worm_, "cell fabrics have no wormhole routers");
    return static_cast<const WormRouter&>(*nodes_[i]);
  }

  /// Register live gauges (fabric.injected/delivered/dropped/backlog/
  /// in_network/latency.mean) on `m` and sample them at every round
  /// boundary (each link_pipe_stages cycles, and the run's end) of
  /// subsequent run() calls -- the same values under any partition. Call
  /// before run(); `m` must outlive the fabric's runs.
  void register_metrics(obs::MetricsRegistry* m);

  /// Advance the whole fabric by `cycles`. Callable repeatedly.
  void run(Cycle cycles);

  /// Deterministic aggregate accounting (identical at any thread count and
  /// under any partition).
  FabricStats stats() const;

  /// Largest undirected hop distance between two nodes over the channel
  /// edge list (data and credit rings alike): the task-graph diameter of
  /// the one-node-per-task partition. The task-graph diameter bounds, in
  /// rounds, the clock skew between two tasks and sizes the sampling-frame
  /// ring.
  unsigned link_diameter() const;

  /// Per-node flight recorder (null unless FabricConfig::flight_recorder).
  const obs::FlightRecorder* node_flight(unsigned i) const {
    return worm_ ? nullptr : cell(i).flight.get();
  }
  /// All nodes' recorders folded in node order -- deterministic at any
  /// thread count. Requires FabricConfig::flight_recorder.
  obs::FlightRecorder merged_flight() const;

  /// Wall-clock telemetry of the run so far: one entry per scheduler task.
  std::vector<ShardTelemetry> shard_telemetry() const;
  /// Scheduling-layer telemetry of the run so far (see FabricSchedulerStats).
  FabricSchedulerStats scheduler_stats() const;
  /// Idle jumps taken, one per task jump (0 with idle skipping off).
  std::uint64_t rounds_skipped() const {
    return rounds_skipped_.load(std::memory_order_relaxed);
  }
  /// Render telemetry as Perfetto tracks: one track per worker (active and
  /// idle slices in wall-clock microseconds) plus a counter track of
  /// per-task stall totals.
  void telemetry_to_perfetto(obs::PerfettoTrace& out) const;

 private:
  explicit Fabric(const FabricConfig& cfg);

  const CellNode& cell(unsigned i) const {
    PMSB_CHECK(!worm_, "wormhole fabrics have no switch nodes");
    return static_cast<const CellNode&>(*nodes_[i]);
  }

  /// One channel ring: written by `producer`'s components, read by
  /// `consumer`'s. Edges between tasks bound the tasks' progress; every
  /// edge feeds the idle-skip ring checks.
  struct Edge {
    unsigned producer;
    unsigned consumer;
    std::unique_ptr<ChannelBase> ring;
  };

  // Implementation in fabric.cpp.
  class Task;
  struct Runtime;

  /// Transport constructors: fill nodes_ and edges_.
  void build_cells();
  void build_worm();
  /// Sum of every node's counts(): the live gauge inputs.
  NodeCounts live_counts() const;
  /// Make `parts` (contiguous node blocks) the tasks: cross-task bounds,
  /// wake lists, home workers and the sampling-frame ring size.
  void apply_partition(const std::vector<std::vector<unsigned>>& parts);
  /// Add `task`'s share to round boundary `k`'s metric sample; the last
  /// contributor publishes it.
  void contribute_sample(const Task& task, Cycle k);
  /// Recompute the task partition from the last run's per-task active_ns
  /// (split hot, merge cold); applied at the next run's start.
  void plan_rebalance();

  FabricConfig cfg_;
  CellCodec codec_;       ///< Cell fabrics' wire format.
  unsigned workers_ = 1;  ///< Resolved worker-thread count.
  bool worm_ = false;     ///< Wormhole transport (mesh or multistage topology).
  /// Destination pattern shared by every node's arrivals (stateless per
  /// pick; see traffic/spec.hpp).
  std::unique_ptr<DestPattern> dests_;
  std::vector<std::unique_ptr<FabricNode>> nodes_;  ///< [node]
  /// [node] Each node's own Engine, attached once at build and stepped by
  /// whichever task owns the node. Never resized: attach() hands out
  /// references (the node's invariant checker keeps one).
  std::vector<Engine> engines_;
  std::vector<Edge> edges_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<exp::ThreadPool> pool_;  ///< Built on the first multi-worker run.
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Non-null only while a task is inside a metrics_->sample() call; gauge
  /// callbacks then read this boundary snapshot instead of the
  /// (concurrently advancing) live node state.
  const NodeCounts* sample_frame_ = nullptr;
  Cycle cycles_run_ = 0;
  bool idle_skip_on_ = true;  ///< Resolved from FabricConfig::idle_skip.
  std::atomic<std::uint64_t> rounds_skipped_{0};
};

}  // namespace pmsb::fabric
