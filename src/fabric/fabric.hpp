// Sharded multi-switch fabric engine: a whole net::Topology of nodes,
// partitioned across worker threads, with a hard determinism contract --
// delivered cells, drops, latencies and every published metric are
// bit-identical at any thread count AND under either execution engine.
//
// One core serves both transports. A transport constructor builds one
// FabricNode per topology vertex (src/fabric/node.hpp) -- a CellNode on the
// torus and ring (a switch with its PortBridges, TxTaps and endpoints,
// src/fabric/bridge.hpp), a flit-level WormRouter on the mesh and the
// multistage kinds (src/fabric/worm.hpp) -- and one (producer, consumer,
// ring) edge per channel ring: one per directed cell link, or a data edge
// u -> v plus a credit edge v -> u per wormhole link. ALL inter-node
// traffic -- including between nodes in the same shard -- goes through
// those rings, so the simulated wiring does not depend on the partition.
// The engines see only nodes and edges, never cells or flits:
//
//  * kBarrier -- conservative lockstep: inter-node links have
//    `link_pipe_stages` (D >= 1) register stages, i.e. a word leaving a node
//    cannot be observed anywhere else for at least D + 1 cycles. Each shard
//    runs its nodes locally for a round of up to D cycles, then all shards
//    meet at a SpinBarrier; every channel slot a shard reads during round r
//    was written in round r-1 or earlier, so no cross-shard event can ever
//    be missed. The barrier's last arriver samples the metrics gauges.
//
//  * kDataflow -- credit-backpressured tasks: every node is its own Engine,
//    grouped into SchedTasks run by a work-stealing Scheduler. A node whose
//    upstream edges' producers have executed through cycle u may run to
//    u + D (its inputs for those cycles are already in the rings) and to
//    consumer_done + capacity - D on each downstream edge (write credit); a
//    task blocks only when every owned node hits one of those bounds, and is
//    woken by the neighbor that moves it. Slow nodes no longer stall the
//    whole fabric -- only their neighborhood, transitively. Metric samples
//    are assembled per round boundary from per-node contributions (each
//    node passes every boundary exactly once), reproducing the barrier's
//    sampling cadence and values bit-exactly. See DESIGN.md "Task-dataflow
//    fabric" for the correctness argument.

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

/// Execution engine for Fabric::run(). Results are bit-identical either way
/// (CI-enforced); the choice only affects wall-clock and scheduling
/// telemetry.
enum class FabricEngine {
  kBarrier,   ///< Lockstep rounds over a SpinBarrier (PR 5 engine).
  kDataflow,  ///< Credit-backpressured tasks on a work-stealing scheduler.
};

/// Process-wide default engine: PMSB_FABRIC_ENGINE=dataflow|barrier (read
/// once; barrier when unset). Lets CI run every fabric bench/test under
/// both engines without touching configs.
FabricEngine fabric_engine_env_default();

/// Process-wide override for the default above (bench --engine flag). Only
/// affects FabricConfigs constructed after the call; call from startup code
/// before any simulation threads exist.
void set_fabric_engine_override(FabricEngine e);

const char* to_string(FabricEngine e);

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
  /// Clamped to the node count.
  unsigned threads = 0;
  /// Execution engine (see FabricEngine). Default from PMSB_FABRIC_ENGINE.
  /// kDataflow starts from four tasks per worker and repartitions between
  /// run() calls (split tasks that dominated the last run's active_ns, merge
  /// starved ones); placement never changes results.
  FabricEngine engine = fabric_engine_env_default();
  /// Idle-cycle skipping: when a region of the fabric is quiescent and its
  /// channels are empty, jump to the next scheduled injection instead of
  /// stepping. Round-granular and global under kBarrier; per-node under
  /// kDataflow. Results are bit-identical either way (CI-enforced).
  /// -1 = environment default (PMSB_IDLE_SKIP), 0 = off, 1 = on.
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
  /// "hotspot:0.25"). Wormhole fabrics honor every destination kind; cell
  /// fabrics support "uniform" only. A spec-embedded load overrides `load`.
  std::string traffic = "uniform";

  ConfigValidation check() const;
  void validate() const;
};

/// Wall-clock accounting for one shard (kBarrier: one per worker thread;
/// kDataflow: one per scheduler task) of the run so far. Telemetry is
/// timing-derived, so it belongs in the BENCH JSON "runtime" block only
/// (the determinism diffs strip it); rounds and cells_relayed are
/// deterministic per shard *given* a thread count and engine, but the
/// partition itself changes with PMSB_THREADS and rebalancing.
struct ShardTelemetry {
  unsigned shard = 0;
  unsigned nodes = 0;           ///< Nodes owned by this shard/task.
  std::uint64_t active_ns = 0;  ///< Wall time advancing the simulation.
  std::uint64_t barrier_wait_ns = 0;    ///< kBarrier: parked at the round barrier.
  std::uint64_t blocked_on_empty_ns = 0;  ///< kDataflow: starved of upstream data.
  std::uint64_t blocked_on_full_ns = 0;   ///< kDataflow: out of downstream credit.
  std::uint64_t steals = 0;     ///< kDataflow: times this task ran on a thief.
  std::uint64_t rounds = 0;     ///< Rounds/chunks stepped (skipped excluded).
  /// Transit cells relayed (cell fabrics) or flits forwarded onto
  /// links (wormhole fabrics) by this shard's nodes.
  std::uint64_t cells_relayed = 0;
};

/// Scheduling-layer accounting for the run so far (BENCH JSON
/// runtime.scheduler block). kBarrier reports its shards as degenerate
/// pinned tasks so the block shape is engine-independent.
struct FabricSchedulerStats {
  const char* engine = "barrier";
  unsigned workers = 0;
  unsigned tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;   ///< Rebalance: hot tasks split.
  std::uint64_t merges = 0;   ///< Rebalance: cold task pairs merged.
  struct Worker {
    std::uint64_t active_ns = 0;
    std::uint64_t idle_ns = 0;  ///< Barrier wait / steal hunt + parked.
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
  FabricEngine engine() const { return cfg_.engine; }
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
  /// boundary of subsequent run() calls -- same cadence and values under
  /// both engines. Call before run(); `m` must outlive the fabric's runs.
  void register_metrics(obs::MetricsRegistry* m);

  /// Advance the whole fabric by `cycles`. Callable repeatedly.
  void run(Cycle cycles);

  /// Deterministic aggregate accounting (identical at any thread count and
  /// under either engine).
  FabricStats stats() const;

  /// Largest undirected hop distance between two nodes over the channel
  /// edge list (data and credit rings alike). Bounds, in rounds, the clock
  /// skew between any two nodes under kDataflow, which sizes its
  /// sampling-frame ring.
  unsigned link_diameter() const;

  /// Per-node flight recorder (null unless FabricConfig::flight_recorder).
  const obs::FlightRecorder* node_flight(unsigned i) const {
    return worm_ ? nullptr : cell(i).flight.get();
  }
  /// All nodes' recorders folded in node order -- deterministic at any
  /// thread count. Requires FabricConfig::flight_recorder.
  obs::FlightRecorder merged_flight() const;

  /// Wall-clock telemetry of the run so far: one entry per worker shard
  /// (kBarrier) or per scheduler task (kDataflow).
  std::vector<ShardTelemetry> shard_telemetry() const;
  /// Scheduling-layer telemetry of the run so far (see FabricSchedulerStats).
  FabricSchedulerStats scheduler_stats() const;
  /// Idle jumps the planner took: whole-fabric rounds under kBarrier,
  /// per-node chunks under kDataflow (0 with idle skipping off).
  std::uint64_t rounds_skipped() const {
    return rounds_skipped_.load(std::memory_order_relaxed);
  }
  /// Render telemetry as Perfetto tracks: one worker track per shard/worker
  /// (active / wait slices in wall-clock microseconds) plus a counter track
  /// of per-shard stall totals, so barrier-vs-dataflow wait time is
  /// directly comparable in one trace.
  void telemetry_to_perfetto(obs::PerfettoTrace& out) const;

 private:
  explicit Fabric(const FabricConfig& cfg);

  const CellNode& cell(unsigned i) const {
    PMSB_CHECK(!worm_, "wormhole fabrics have no switch nodes");
    return static_cast<const CellNode&>(*nodes_[i]);
  }

  /// One channel ring: written by `producer`'s components, read by
  /// `consumer`'s. Drives the barrier planner's ring checks and the
  /// dataflow engine's input/credit bounds alike.
  struct Edge {
    unsigned producer;
    unsigned consumer;
    std::unique_ptr<ChannelBase> ring;
  };

  struct Shard {
    Engine engine;
    std::vector<unsigned> node_ids;
    // Telemetry, written only by the thread running this shard (the pool's
    // wait_idle orders the writes before the main thread reads them).
    std::uint64_t active_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t rounds = 0;
  };

  /// Transport constructors: fill nodes_ and edges_.
  void build_cells();
  void build_worm();
  /// Sum of every node's counts(): the live gauge inputs.
  NodeCounts live_counts() const;
  void end_of_round();
  /// Round-granularity idle skip, run inside the barrier completion while
  /// every worker is parked: if all shards are quiescent and all channels
  /// empty, advance cycles_run_ by whole rounds (sampling metrics at each
  /// boundary exactly as stepped rounds would) up to the earliest scheduled
  /// injection, then clear the channel rings. Workers notice the jump after
  /// the barrier and skip_to() their shard engines.
  void maybe_skip();

  // --- Dataflow engine (implementation in fabric.cpp) ---------------------
  struct Dataflow;
  /// Node-level outcome of one bounded chunk attempt.
  enum class NodeAdvance : std::uint8_t {
    kStepped,        ///< Executed a chunk cycle by cycle.
    kSkipped,        ///< Jumped a quiescent chunk (idle skip).
    kInputBlocked,   ///< Upstream lookahead exhausted.
    kCreditBlocked,  ///< Downstream ring out of credit.
    kNodeDone,       ///< Reached the run target.
  };
  /// Per-node engines and dependency edges, a sampling-frame ring of
  /// `frame_ring` slots, and the initial contiguous task partition.
  void build_tasks(unsigned frame_ring);
  void run_dataflow(Cycle cycles);
  NodeAdvance df_advance_node(unsigned v);
  bool df_node_ready(unsigned v) const;
  void df_contribute_sample(unsigned v, Cycle boundary_index);
  /// Recompute the task partition from the last run's per-task active_ns
  /// (split hot, merge cold); applied lazily at the next run's start.
  void df_plan_rebalance();
  void df_apply_partition(const std::vector<std::vector<unsigned>>& parts);

  FabricConfig cfg_;
  CellCodec codec_;       ///< Cell fabrics' wire format.
  unsigned workers_ = 1;  ///< Resolved worker-thread count.
  bool worm_ = false;     ///< Wormhole transport (mesh or multistage topology).
  /// Shared destination pattern of the worm sources (stateless per pick;
  /// see traffic/spec.hpp).
  std::unique_ptr<DestPattern> wdests_;
  std::vector<std::unique_ptr<FabricNode>> nodes_;  ///< [node]
  std::vector<Edge> edges_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< kBarrier only.
  std::unique_ptr<Dataflow> df_;                ///< kDataflow only.
  std::unique_ptr<exp::ThreadPool> pool_;  ///< Lazily built when needed.
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Non-null only while the dataflow engine is inside a metrics_->sample()
  /// call; gauge callbacks then read this boundary snapshot instead of the
  /// (concurrently advancing) live node state.
  const NodeCounts* sample_frame_ = nullptr;
  Cycle cycles_run_ = 0;
  Cycle run_target_ = 0;
  bool idle_skip_on_ = true;  ///< Resolved from FabricConfig::idle_skip.
  std::atomic<std::uint64_t> rounds_skipped_{0};
};

}  // namespace pmsb::fabric
