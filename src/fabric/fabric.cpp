#include "fabric/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "exp/sweep.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/task.hpp"
#include "obs/perfetto.hpp"
#include "sim/barrier.hpp"
#include "traffic/spec.hpp"

namespace pmsb::fabric {
namespace {
bool g_engine_overridden = false;
FabricEngine g_engine_override = FabricEngine::kBarrier;

/// The transport follows the topology kind: wormhole where its routing is
/// deadlock-free (feed-forward multistage stages, XY on a mesh), cells on
/// the wrap-around torus and ring.
bool wormhole_kind(const net::Topology& topo) {
  return topo.multistage() || topo.kind == net::TopologyKind::kMesh2D;
}
}  // namespace

void set_fabric_engine_override(FabricEngine e) {
  g_engine_overridden = true;
  g_engine_override = e;
}

FabricEngine fabric_engine_env_default() {
  if (g_engine_overridden) return g_engine_override;
  static const FabricEngine e = [] {
    const char* v = std::getenv("PMSB_FABRIC_ENGINE");
    if (v != nullptr && std::string(v) == "dataflow") return FabricEngine::kDataflow;
    return FabricEngine::kBarrier;
  }();
  return e;
}

const char* to_string(FabricEngine e) {
  return e == FabricEngine::kDataflow ? "dataflow" : "barrier";
}

ConfigValidation FabricConfig::check() const {
  // Wormhole fabrics have no per-node switch; their geometry and transport
  // parameters are validated here instead of node.check().
  const bool worm = wormhole_kind(topo);
  ConfigValidation v = worm ? ConfigValidation{} : node.check();
  auto issue = [&v](ConfigIssue::Code c, std::string msg) {
    v.issues.push_back(ConfigIssue{c, std::move(msg)});
  };
  if (link_pipe_stages < 1)
    issue(ConfigIssue::Code::kBadLinkStages, "fabric links need >= 1 register stage");
  if (!(load >= 0.0 && load <= 1.0))
    issue(ConfigIssue::Code::kBadLoad, "offered load must be in [0, 1]");
  try {
    const auto spec = traffic::GeneratorSpec::parse(traffic);
    if (!worm && spec.kind != traffic::GeneratorSpec::Kind::kUniform)
      issue(ConfigIssue::Code::kBadLoad,
            "cell fabrics support uniform traffic only (got \"" + traffic + "\")");
  } catch (const std::invalid_argument& e) {
    issue(ConfigIssue::Code::kBadLoad, e.what());
  }

  if (worm) {
    if (topo.kind == net::TopologyKind::kMesh2D) {
      if (topo.nodes() < 2)
        issue(ConfigIssue::Code::kBadTopology, "fabric needs at least two nodes");
    } else if (topo.kind == net::TopologyKind::kClos) {
      if (topo.radix < 2)
        issue(ConfigIssue::Code::kBadTopology, "a Clos network needs radix >= 2");
      else if (topo.width != topo.radix * topo.radix)
        issue(ConfigIssue::Code::kBadTopology,
              "a symmetric Clos C(k,k,k) needs width == radix * radix endpoints");
    } else if (!is_pow2(topo.width) || topo.width < 4) {
      issue(ConfigIssue::Code::kBadTopology,
            "banyan/omega networks need a power-of-two width >= 4");
    }
    if (topo.endpoints() > kMaxWormEndpoints)
      issue(ConfigIssue::Code::kBadTopology,
            "wormhole fabrics address at most " + std::to_string(kMaxWormEndpoints) +
                " endpoints (16-bit flit destination); got " +
                std::to_string(topo.endpoints()));
    if (lanes < 1 || lanes > 32)
      issue(ConfigIssue::Code::kBadPorts, "wormhole lanes must be in [1, 32]");
    else if (buffer_flits < lanes || buffer_flits % lanes != 0)
      issue(ConfigIssue::Code::kBadCapacity,
            "buffer_flits must be a positive multiple of lanes");
    if (message_flits < 1)
      issue(ConfigIssue::Code::kBadCellWords, "wormhole messages need >= 1 flit");
    if (fast_node)
      issue(ConfigIssue::Code::kBadTopology, "fast_node applies to cell fabrics only");
    if (flight_recorder)
      issue(ConfigIssue::Code::kBadTopology,
            "flight_recorder applies to cell fabrics only");
    return v;
  }

  if (topo.nodes() < 2) issue(ConfigIssue::Code::kBadTopology, "fabric needs at least two nodes");
  if (topo.kind == net::TopologyKind::kRing) {
    if (topo.height != 1 || topo.width < 2)
      issue(ConfigIssue::Code::kBadTopology, "a ring is width >= 2, height == 1");
  } else if (topo.kind == net::TopologyKind::kTorus2D) {
    // Width/height 1 would wrap a node onto itself.
    if (topo.width < 2 || topo.height < 2)
      issue(ConfigIssue::Code::kBadTopology, "a torus needs width and height >= 2");
  }
  if (node.n_ports < topo.required_ports())
    issue(ConfigIssue::Code::kBadPorts,
          "fabric nodes need at least " + std::to_string(topo.required_ports()) + " ports");
  if (node.word_bits < 16)
    issue(ConfigIssue::Code::kBadWordBits, "fabric wire format needs word_bits >= 16");
  if (node.cell_words < 4)
    issue(ConfigIssue::Code::kBadCellWords, "fabric wire format needs cells of >= 4 words");
  else if (bits_for(topo.nodes()) > node.cell_format().tag_bits())
    issue(ConfigIssue::Code::kHeadTooNarrow, "head tag too narrow for a node id");
  return v;
}

void FabricConfig::validate() const {
  const ConfigValidation v = check();
  if (!v.ok()) throw std::invalid_argument(v.summary());
}

// ---------------------------------------------------------------------------
// Dataflow engine internals.
//
// Correctness model (full argument in DESIGN.md "Task-dataflow fabric"):
// every node publishes `done` -- the count of cycles it has fully executed.
// Node X with upstream neighbors U and downstream neighbors Y may execute
// cycle t when
//
//   t <  min_U(U.done) + D            (input bound: the channel slot X reads
//                                      at t, written at t - D, exists once
//                                      U.done > t - D)
//   t <  min_Y(Y.done) + capacity - D (credit bound: X's write at t lands on
//                                      the slot aliasing cycle t - capacity,
//                                      which Y consumed strictly before its
//                                      current cycle)
//
// Both loads are seq_cst and every `done` store is seq_cst, which (a) gives
// the ring writes release/acquire visibility through the counter, replacing
// the barrier's happens-before edge, and (b) pairs with the scheduler's
// blocked/wake Dekker protocol (scheduler.hpp). The global minimum node is
// always runnable (its bounds are strictly ahead of it), so the task graph
// cannot deadlock.

struct Fabric::Dataflow {
  struct NodeRt {
    Engine engine;  ///< This node's private two-phase kernel.
    /// Cycles fully executed (== engine.now() between chunks). The only
    /// cross-thread-written word of the node; everything else is owned by
    /// whichever worker holds the node's task.
    std::atomic<Cycle> done{0};
    struct In {
      unsigned node;    ///< Producer of an edge this node consumes.
      ChannelBase* ch;  ///< That edge's ring.
    };
    std::vector<In> ins;
    std::vector<unsigned> out_nodes;  ///< Consumers of this node's edges.
    std::vector<ChannelBase*> out_chs;
    Cycle credit = 0;  ///< min over out_chs of capacity() - D.
  };

  class Task : public SchedTask {
   public:
    Fabric* fab = nullptr;
    std::vector<unsigned> node_ids;
    /// active_ns at the start of the current run (rebalance input).
    std::uint64_t active_snapshot = 0;

    Advance advance() override {
      bool progressed = false;
      bool any_blocked = false;
      bool any_empty = false;
      for (unsigned v : node_ids) {
        switch (fab->df_advance_node(v)) {
          case NodeAdvance::kStepped:
            rounds.fetch_add(1, std::memory_order_relaxed);
            progressed = true;
            break;
          case NodeAdvance::kSkipped: progressed = true; break;
          case NodeAdvance::kInputBlocked:
            any_blocked = true;
            any_empty = true;
            break;
          case NodeAdvance::kCreditBlocked: any_blocked = true; break;
          case NodeAdvance::kNodeDone: break;
        }
      }
      if (progressed) return Advance::kProgress;
      if (!any_blocked) return Advance::kFinished;
      return any_empty ? Advance::kBlockedOnEmpty : Advance::kBlockedOnFull;
    }

    bool can_advance() const override {
      for (unsigned v : node_ids)
        if (fab->df_node_ready(v)) return true;
      return false;
    }
  };

  /// Accumulator for one in-flight round boundary's metric sample (see
  /// df_contribute_sample). Reused round-robin: slot j serves boundaries
  /// j, j + R, j + 2R, ... where R = frames.size().
  struct FrameSlot {
    std::atomic<Cycle> boundary{-1};  ///< Boundary index armed, -1 inactive.
    std::atomic<unsigned> remaining{0};
    std::atomic<std::uint64_t> generated{0};
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> lat_sum{0};

    /// Zero the sums and arm the slot for boundary `k` (-1: inactive).
    void arm(Cycle k, unsigned contributors) {
      for (auto* sum : {&generated, &backlog, &delivered, &dropped, &lat_sum})
        sum->store(0, std::memory_order_relaxed);
      remaining.store(contributors, std::memory_order_relaxed);
      boundary.store(k, std::memory_order_release);
    }
    void add(const NodeCounts& c) {
      generated.fetch_add(c.generated, std::memory_order_relaxed);
      backlog.fetch_add(c.backlog, std::memory_order_relaxed);
      delivered.fetch_add(c.delivered, std::memory_order_relaxed);
      dropped.fetch_add(c.dropped, std::memory_order_relaxed);
      lat_sum.fetch_add(c.lat_sum, std::memory_order_relaxed);
    }
    NodeCounts sum() const {
      NodeCounts c;
      c.generated = generated.load(std::memory_order_relaxed);
      c.backlog = backlog.load(std::memory_order_relaxed);
      c.delivered = delivered.load(std::memory_order_relaxed);
      c.dropped = dropped.load(std::memory_order_relaxed);
      c.lat_sum = lat_sum.load(std::memory_order_relaxed);
      return c;
    }
  };

  std::vector<std::unique_ptr<NodeRt>> nodes;
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<unsigned> task_of;  ///< node -> owning task index.
  std::vector<std::vector<unsigned>> wake_lists;
  std::vector<unsigned> placement;
  std::unique_ptr<Scheduler> scheduler;

  // Current run window.
  Cycle run_start = 0;
  Cycle target = 0;
  Cycle round = 1;         ///< Boundary spacing (= link_pipe_stages).
  Cycle n_boundaries = 0;  ///< Of the current run; 0 with metrics off.
  std::vector<std::unique_ptr<FrameSlot>> frames;
  /// Next boundary index whose sample may be published (orders the
  /// registry's sample() calls exactly like the barrier's rounds).
  std::atomic<Cycle> sample_turn{0};

  // Rebalancing (planned at run end, applied at next run start).
  std::vector<std::vector<unsigned>> pending_parts;
  bool pending = false;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::vector<std::string> log;

  /// Smallest boundary cycle > d of the current run.
  Cycle next_boundary(Cycle d) const {
    const Cycle len = target - run_start;
    Cycle nb = ((d - run_start) / round + 1) * round;
    if (nb > len) nb = len;
    return run_start + nb;
  }
  bool is_boundary(Cycle c) const {
    const Cycle rel = c - run_start;
    return rel > 0 && (rel == target - run_start || rel % round == 0);
  }
  Cycle boundary_index(Cycle c) const {
    const Cycle rel = c - run_start;
    return rel % round == 0 ? rel / round - 1 : n_boundaries - 1;
  }
  Cycle boundary_cycle(Cycle index) const {
    const Cycle len = target - run_start;
    return run_start + std::min<Cycle>((index + 1) * round, len);
  }
};

std::unique_ptr<Fabric> Fabric::build(const net::Topology& topo, const FabricConfig& cfg) {
  FabricConfig c = cfg;
  c.topo = topo;
  return std::unique_ptr<Fabric>(new Fabric(c));
}

Fabric::Fabric(const FabricConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  worm_ = wormhole_kind(cfg_.topo);
  const unsigned n = cfg_.topo.nodes();
  const unsigned workers = cfg_.threads ? cfg_.threads : exp::thread_count();
  workers_ = std::min(std::max(workers, 1u), n);
  idle_skip_on_ = cfg_.idle_skip < 0 ? Engine::idle_skip_env_default() : cfg_.idle_skip != 0;
  if (worm_)
    build_worm();
  else
    build_cells();
  if (cfg_.engine == FabricEngine::kDataflow) {
    // The sampling-frame ring holds every boundary that two nodes' clocks
    // can straddle, plus slack.
    build_tasks(link_diameter() + 4);
    return;
  }
  // kBarrier: contiguous node blocks per shard (cache locality; any fixed
  // partition yields identical results).
  shards_.reserve(workers_);
  for (unsigned s = 0; s < workers_; ++s) {
    auto shard = std::make_unique<Shard>();
    // Engine-local skipping stays off inside shards: a shard cannot see
    // other shards' in-flight flits or its own channels' contents, so only
    // the fabric-level planner (maybe_skip) may skip, at round granularity.
    shard->engine.set_idle_skip(false);
    for (unsigned v = s * n / workers_; v < (s + 1) * n / workers_; ++v) {
      shard->node_ids.push_back(v);
      nodes_[v]->attach(shard->engine);
    }
    shards_.push_back(std::move(shard));
  }
}

Fabric::~Fabric() = default;

unsigned Fabric::link_diameter() const {
  // Every link carries edges both ways (a cell link each direction, or a
  // wormhole data ring plus its credit ring), so each hop bounds the two
  // clocks within one round of each other in both directions.
  const unsigned n = nodes();
  std::vector<std::vector<unsigned>> adj(n);
  for (const Edge& e : edges_) {
    adj[e.producer].push_back(e.consumer);
    adj[e.consumer].push_back(e.producer);
  }
  constexpr unsigned kUnseen = ~0u;
  unsigned widest = 0;
  std::vector<unsigned> dist(n);
  std::vector<unsigned> queue;
  queue.reserve(n);
  for (unsigned src = 0; src < n; ++src) {
    dist.assign(n, kUnseen);
    dist[src] = 0;
    queue.assign(1, src);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const unsigned u = queue[i];
      for (unsigned v : adj[u]) {
        if (dist[v] != kUnseen) continue;
        dist[v] = dist[u] + 1;
        widest = std::max(widest, dist[v]);
        queue.push_back(v);
      }
    }
  }
  return widest;
}

void Fabric::build_cells() {
  const net::Topology& topo = cfg_.topo;
  const unsigned n = topo.nodes();
  const unsigned ports = topo.required_ports();
  codec_ = CellCodec{cfg_.node.cell_format(), bits_for(n)};
  // A "uniform:LOAD" spec overrides cfg_.load, same as the worm fabrics.
  const double load = traffic::GeneratorSpec::parse(cfg_.traffic).load_or(cfg_.load);

  // Identical wiring at every thread count AND engine: each directed link
  // (u, out port p) gets a ring even when both endpoints share a shard. The
  // torus and ring wrap, so every port has a neighbor.
  std::vector<Channel*> tx(static_cast<std::size_t>(n) * ports, nullptr);
  edges_.reserve(tx.size());
  for (unsigned u = 0; u < n; ++u) {
    for (unsigned p = 0; p < ports; ++p) {
      const auto v = static_cast<unsigned>(topo.neighbor(u, static_cast<net::Port>(p)));
      auto ring = std::make_unique<Channel>(cfg_.link_pipe_stages);
      tx[u * ports + p] = ring.get();
      edges_.push_back(Edge{u, v, std::move(ring)});
    }
  }

  nodes_.reserve(n);
  for (unsigned v = 0; v < n; ++v) {
    auto node = std::make_unique<CellNode>(cfg_.node, cfg_.fast_node && cfg_.fast_node(v));
    node->injector.rng = Rng(mix64(cfg_.seed + 0x9e3779b97f4a7c15ULL * (v + 1)));
    node->injector.cells_per_cycle = load / cfg_.node.cell_words;
    node->injector.self = v;
    node->injector.n_nodes = n;
    if (cfg_.flight_recorder) {
      obs::FlightRecorderConfig fr;
      fr.warmup = cfg_.flight_warmup;
      node->flight = std::make_unique<obs::FlightRecorder>(cfg_.node.n_ports,
                                                           cfg_.node.cell_words, fr);
      node->flight->attach(node->events());
    }
    // One bridge per incoming link; the first doubles as the node's
    // injection point.
    node->bridges.reserve(ports);
    node->taps.reserve(ports);
    for (unsigned q = 0; q < ports; ++q) {
      const net::Port port = static_cast<net::Port>(q);
      const auto u = static_cast<unsigned>(topo.neighbor(v, port));
      Channel* rx = tx[u * ports + net::opposite(port)];
      Injector* inj = q == 0 ? &node->injector : nullptr;
      node->bridges.push_back(std::make_unique<PortBridge>(
          &cfg_.topo, &codec_, v, port, rx, &node->in_link(q), inj, &node->ejector));
    }
    for (unsigned p = 0; p < ports; ++p)
      node->taps.push_back(std::make_unique<TxTap>(&node->out_link(p), tx[v * ports + p]));
    nodes_.push_back(std::move(node));
  }
}

void Fabric::build_worm() {
  const net::Topology& topo = cfg_.topo;
  const unsigned n = topo.nodes();
  const unsigned ports = topo.required_ports();
  const auto spec = traffic::GeneratorSpec::parse(cfg_.traffic);

  // One shared destination pattern: pick() is stateless (each caller passes
  // its own Rng), so routers on different threads can share it. The rng here
  // only seeds the permutation draw.
  Rng drng(mix64(cfg_.seed ^ 0x517cc1b727220a95ULL));
  wdests_ = spec.make_dest(topo.endpoints(), drng);

  WormParams wp;
  wp.lanes = cfg_.lanes;
  wp.lane_depth = cfg_.buffer_flits / cfg_.lanes;
  wp.message_flits = cfg_.message_flits;
  wp.messages_per_cycle = spec.load_or(cfg_.load) / cfg_.message_flits;

  std::vector<WormRouter*> routers;
  nodes_.reserve(n);
  for (unsigned v = 0; v < n; ++v) {
    auto r = std::make_unique<WormRouter>(&cfg_.topo, v, wp, wdests_.get());
    routers.push_back(r.get());
    nodes_.push_back(std::move(r));
  }

  // Links (u, out p) -> (v, in q): a forward flit ring u -> v plus a
  // reverse credit ring v -> u per link, identical wiring at every thread
  // count and engine. Mesh edges and last-stage outputs have no neighbor.
  edges_.reserve(2 * static_cast<std::size_t>(n) * ports);
  for (unsigned u = 0; u < n; ++u) {
    for (unsigned p = 0; p < ports; ++p) {
      const int vi = topo.neighbor(u, p);
      if (vi < 0) continue;
      const auto v = static_cast<unsigned>(vi);
      const unsigned q = topo.multistage() ? topo.peer_in_port(u, p)
                                           : net::opposite(static_cast<net::Port>(p));
      auto data = std::make_unique<WormChannel>(cfg_.link_pipe_stages);
      auto credit = std::make_unique<CreditChannel>(cfg_.link_pipe_stages);
      routers[u]->connect_out(p, data.get(), credit.get());
      routers[v]->connect_in(q, data.get(), credit.get());
      edges_.push_back(Edge{u, v, std::move(data)});
      edges_.push_back(Edge{v, u, std::move(credit)});
    }
  }

  // Endpoints (per-endpoint RNG split from the seed, like the cell
  // Injectors): on a mesh, endpoint v is router v's kLocal port both ways;
  // on a multistage network, sources sit on the first stage's inputs and
  // sinks on the last stage's outputs.
  auto endpoint_rng = [this](unsigned e) {
    return Rng(mix64(cfg_.seed + 0x9e3779b97f4a7c15ULL * (e + 1)));
  };
  if (!topo.multistage()) {
    for (unsigned v = 0; v < n; ++v) {
      routers[v]->add_source(net::kLocal, v, endpoint_rng(v));
      routers[v]->add_sink(net::kLocal, v);
    }
    return;
  }
  for (unsigned e = 0; e < topo.endpoints(); ++e) {
    const auto [v, q] = topo.ingress_of(e);
    routers[v]->add_source(q, e, endpoint_rng(e));
  }
  for (unsigned el = 0; el < topo.elements_per_stage(); ++el) {
    const unsigned v = topo.node_id(topo.stages() - 1, el);
    for (unsigned p = 0; p < ports; ++p) routers[v]->add_sink(p, topo.egress_endpoint(v, p));
  }
}

void Fabric::build_tasks(unsigned frame_ring) {
  df_ = std::make_unique<Dataflow>();
  Dataflow& df = *df_;
  const unsigned n = nodes();
  const Cycle stages = cfg_.link_pipe_stages;

  df.scheduler = std::make_unique<Scheduler>(workers_);
  df.nodes.reserve(n);
  for (unsigned v = 0; v < n; ++v) {
    auto nd = std::make_unique<Dataflow::NodeRt>();
    // Engine-local skipping off: the node's engine cannot see its rings, so
    // only df_advance_node may skip, with the ring-idle check.
    nd->engine.set_idle_skip(false);
    nodes_[v]->attach(nd->engine);
    df.nodes.push_back(std::move(nd));
  }
  // Every edge makes its consumer wait for the producer's progress (input
  // bound) and the producer wait for the consumer's (write credit). A
  // wormhole link's credit edge points the other way, so its two routers
  // bound each other in both directions.
  for (const Edge& e : edges_) {
    df.nodes[e.consumer]->ins.push_back(Dataflow::NodeRt::In{e.producer, e.ring.get()});
    df.nodes[e.producer]->out_nodes.push_back(e.consumer);
    df.nodes[e.producer]->out_chs.push_back(e.ring.get());
  }
  for (auto& nd : df.nodes) {
    Cycle credit = kNeverWake;
    for (ChannelBase* ch : nd->out_chs)
      credit = std::min(credit, static_cast<Cycle>(ch->capacity()) - stages);
    PMSB_CHECK(credit > 0, "channel ring smaller than its own delay");
    nd->credit = credit;
  }

  df.frames.reserve(frame_ring);
  for (unsigned j = 0; j < frame_ring; ++j)
    df.frames.push_back(std::make_unique<Dataflow::FrameSlot>());

  // Initial partition: contiguous blocks, several tasks per worker so
  // stealing and rebalancing have slack to move load around.
  constexpr unsigned kTasksPerWorker = 4;
  const unsigned ntasks = std::min(workers_ * kTasksPerWorker, n);
  std::vector<std::vector<unsigned>> parts(ntasks);
  for (unsigned t = 0; t < ntasks; ++t)
    for (unsigned v = t * n / ntasks; v < (t + 1) * n / ntasks; ++v) parts[t].push_back(v);
  df_apply_partition(parts);
}

void Fabric::df_apply_partition(const std::vector<std::vector<unsigned>>& parts) {
  Dataflow& df = *df_;
  const unsigned n = nodes();
  df.tasks.clear();
  df.task_of.assign(n, 0);
  for (std::size_t t = 0; t < parts.size(); ++t) {
    PMSB_CHECK(!parts[t].empty(), "empty task in fabric partition");
    auto task = std::make_unique<Dataflow::Task>();
    task->fab = this;
    task->node_ids = parts[t];
    for (unsigned v : parts[t]) df.task_of[v] = static_cast<unsigned>(t);
    df.tasks.push_back(std::move(task));
  }
  // Wake lists: the tasks owning any channel neighbor of this task's nodes.
  df.wake_lists.assign(parts.size(), {});
  for (std::size_t t = 0; t < parts.size(); ++t) {
    std::vector<unsigned>& nbrs = df.wake_lists[t];
    for (unsigned v : parts[t]) {
      for (const Dataflow::NodeRt::In& in : df.nodes[v]->ins)
        nbrs.push_back(df.task_of[in.node]);
      for (unsigned o : df.nodes[v]->out_nodes) nbrs.push_back(df.task_of[o]);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    nbrs.erase(std::remove(nbrs.begin(), nbrs.end(), static_cast<unsigned>(t)), nbrs.end());
  }
  // Initial placement follows the node index (neighboring tasks start on
  // the same worker); stealing takes it from there.
  df.placement.resize(parts.size());
  for (std::size_t t = 0; t < parts.size(); ++t) {
    const unsigned w = static_cast<unsigned>(
        static_cast<std::uint64_t>(parts[t].front()) * workers_ / n);
    df.placement[t] = std::min(w, workers_ - 1);
  }
}

NodeCounts Fabric::live_counts() const {
  NodeCounts c;
  for (const auto& node : nodes_) c += node->counts();
  return c;
}

void Fabric::register_metrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  if (!m) return;
  // Under the dataflow engine the gauges fire inside a boundary-frame
  // publication (df_contribute_sample) while other nodes keep advancing, so
  // they read the assembled frame; the barrier engine samples with every
  // worker parked and reads live state. Values are identical.
  auto frame = [this] { return sample_frame_ ? *sample_frame_ : live_counts(); };
  m->add_gauge("fabric.injected", [frame] { return static_cast<double>(frame().generated); });
  m->add_gauge("fabric.delivered", [frame] { return static_cast<double>(frame().delivered); });
  m->add_gauge("fabric.dropped", [frame] { return static_cast<double>(frame().dropped); });
  m->add_gauge("fabric.backlog", [frame] { return static_cast<double>(frame().backlog); });
  m->add_gauge("fabric.in_network", [frame] {
    const NodeCounts c = frame();
    return static_cast<double>(c.generated - c.backlog - c.delivered - c.dropped);
  });
  m->add_gauge("fabric.latency.mean", [frame] {
    const NodeCounts c = frame();
    return c.delivered ? static_cast<double>(c.lat_sum) / static_cast<double>(c.delivered)
                       : 0.0;
  });
}

void Fabric::run(Cycle cycles) {
  if (cycles <= 0) return;
  if (cfg_.engine == FabricEngine::kDataflow) {
    run_dataflow(cycles);
    return;
  }
  run_target_ = cycles_run_ + cycles;
  const Cycle lookahead = cfg_.link_pipe_stages;

  using SteadyClock = std::chrono::steady_clock;
  auto ns_between = [](SteadyClock::time_point a, SteadyClock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };

  if (shards_.size() == 1) {
    Shard& s = *shards_[0];
    while (cycles_run_ < run_target_) {
      const auto t0 = SteadyClock::now();
      s.engine.run(std::min<Cycle>(lookahead, run_target_ - cycles_run_));
      const auto t1 = SteadyClock::now();
      end_of_round();
      // With one shard the "barrier" cost is the round bookkeeping itself.
      s.active_ns += ns_between(t0, t1);
      s.barrier_wait_ns += ns_between(t1, SteadyClock::now());
      ++s.rounds;
      if (s.engine.now() < cycles_run_) s.engine.skip_to(cycles_run_);
    }
    return;
  }

  const unsigned workers = static_cast<unsigned>(shards_.size());
  if (!pool_) {
    exp::ThreadPoolOptions po;
    if (exp::pin_threads_env())
      po.on_worker_start = [](unsigned w) { exp::pin_current_thread(w); };
    pool_ = std::make_unique<exp::ThreadPool>(workers, std::move(po));
  }
  // The last arriver of each round advances the global clock and samples
  // the gauges while every other shard is parked (see sim/barrier.hpp).
  SpinBarrier barrier(workers, [this] { end_of_round(); });
  const Cycle start = cycles_run_;
  const Cycle target = run_target_;
  for (auto& sp : shards_) {
    Shard* shard = sp.get();
    pool_->submit([this, shard, start, target, lookahead, &barrier, ns_between] {
      Cycle done = start;
      while (done < target) {
        const Cycle step = std::min<Cycle>(lookahead, target - done);
        const auto t0 = SteadyClock::now();
        shard->engine.run(step);
        const auto t1 = SteadyClock::now();
        done += step;
        barrier.arrive_and_wait();
        shard->active_ns += ns_between(t0, t1);
        shard->barrier_wait_ns += ns_between(t1, SteadyClock::now());
        ++shard->rounds;
        // The planner may have skipped whole rounds inside the barrier
        // (maybe_skip); every worker observes the same jump -- the barrier
        // orders the cycles_run_ write before this read -- so all shards
        // take identical trajectories.
        if (done < cycles_run_ && cycles_run_ <= target) {
          shard->engine.skip_to(cycles_run_);
          done = cycles_run_;
        }
      }
    });
  }
  pool_->wait_idle();
  PMSB_CHECK(cycles_run_ == run_target_, "fabric rounds out of step");
}

void Fabric::run_dataflow(Cycle cycles) {
  Dataflow& df = *df_;
  if (df.pending) {
    df_apply_partition(df.pending_parts);
    df.pending_parts.clear();
    df.pending = false;
  }
  df.run_start = cycles_run_;
  df.target = cycles_run_ + cycles;
  run_target_ = df.target;
  df.round = cfg_.link_pipe_stages;
  if (metrics_ != nullptr) {
    df.n_boundaries = (cycles + df.round - 1) / df.round;
    df.sample_turn.store(0, std::memory_order_relaxed);
    for (std::size_t j = 0; j < df.frames.size(); ++j) {
      const Cycle k = static_cast<Cycle>(j);
      df.frames[j]->arm(k < df.n_boundaries ? k : -1, nodes());
    }
  } else {
    df.n_boundaries = 0;
  }
  for (auto& t : df.tasks)
    t->active_snapshot = t->active_ns.load(std::memory_order_relaxed);

  if (!pool_) {
    exp::ThreadPoolOptions po;
    if (exp::pin_threads_env())
      po.on_worker_start = [](unsigned w) { exp::pin_current_thread(w); };
    pool_ = std::make_unique<exp::ThreadPool>(workers_, std::move(po));
  }
  std::vector<SchedTask*> tasks;
  tasks.reserve(df.tasks.size());
  for (auto& t : df.tasks) tasks.push_back(t.get());
  df.scheduler->run(*pool_, tasks, df.wake_lists, df.placement);

  cycles_run_ = df.target;
  for (const auto& nd : df.nodes)
    PMSB_CHECK(nd->done.load(std::memory_order_relaxed) == df.target,
               "dataflow node stopped short of the run target");
  if (metrics_ != nullptr)
    PMSB_CHECK(df.sample_turn.load(std::memory_order_relaxed) == df.n_boundaries,
               "dataflow run finished with unpublished samples");
  df_plan_rebalance();
}

Fabric::NodeAdvance Fabric::df_advance_node(unsigned v) {
  Dataflow& df = *df_;
  Dataflow::NodeRt& nd = *df.nodes[v];
  const Cycle target = df.target;
  const Cycle d = nd.engine.now();
  if (d >= target) return NodeAdvance::kNodeDone;
  const Cycle stages = cfg_.link_pipe_stages;

  // Input bound first: it is the tighter constraint under load, and its
  // seq_cst loads double as the acquire of the upstreams' ring writes.
  Cycle limit = target;
  for (const Dataflow::NodeRt::In& in : nd.ins) {
    const Cycle b = df.nodes[in.node]->done.load(std::memory_order_seq_cst) + stages;
    if (b < limit) limit = b;
  }
  if (limit <= d) return NodeAdvance::kInputBlocked;
  for (unsigned o : nd.out_nodes) {
    const Cycle b = df.nodes[o]->done.load(std::memory_order_seq_cst) + nd.credit;
    if (b < limit) limit = b;
  }
  if (limit <= d) return NodeAdvance::kCreditBlocked;
  if (metrics_ != nullptr) {
    // Land on every round boundary so this node can contribute its sample
    // share there (the barrier engine samples at exactly these cycles).
    const Cycle nb = df.next_boundary(d);
    if (nb < limit) limit = nb;
  }

  bool stepped = true;
  if (idle_skip_on_ && nd.engine.can_skip()) {
    // Whole-chunk idle skip: every component quiescent through the chunk
    // (wake >= limit keeps the wake cycle itself stepped) and no flit
    // arriving on any input during [d, limit) -- idle_at(d) bounds arrivals
    // to cycles >= upstream_done >= limit - D, outside the window.
    Cycle wake = kNeverWake;
    if (nd.engine.quiescent_at(d, &wake) && wake >= limit) {
      bool rx_idle = true;
      for (const Dataflow::NodeRt::In& in : nd.ins) {
        if (!in.ch->idle_at(d)) {
          rx_idle = false;
          break;
        }
      }
      if (rx_idle) {
        // Stand in for the suppressed per-cycle writes (Channel::clear_range).
        for (ChannelBase* ch : nd.out_chs) ch->clear_range(d, limit);
        nd.engine.skip_to(limit);
        rounds_skipped_.fetch_add(1, std::memory_order_relaxed);
        stepped = false;
      }
    }
  }
  if (stepped) nd.engine.run(limit - d);

  // Publish progress: seq_cst store pairs with neighbors' bound loads (ring
  // visibility) and with the scheduler's block/recheck protocol.
  nd.done.store(limit, std::memory_order_seq_cst);
  if (metrics_ != nullptr && df.is_boundary(limit))
    df_contribute_sample(v, df.boundary_index(limit));
  return stepped ? NodeAdvance::kStepped : NodeAdvance::kSkipped;
}

bool Fabric::df_node_ready(unsigned v) const {
  const Dataflow& df = *df_;
  const Dataflow::NodeRt& nd = *df.nodes[v];
  const Cycle d = nd.done.load(std::memory_order_seq_cst);
  if (d >= df.target) return false;
  const Cycle stages = cfg_.link_pipe_stages;
  for (const Dataflow::NodeRt::In& in : nd.ins)
    if (df.nodes[in.node]->done.load(std::memory_order_seq_cst) + stages <= d) return false;
  for (unsigned o : nd.out_nodes)
    if (df.nodes[o]->done.load(std::memory_order_seq_cst) + nd.credit <= d) return false;
  return true;
}

void Fabric::df_contribute_sample(unsigned v, Cycle k) {
  Dataflow& df = *df_;
  Dataflow::FrameSlot& slot =
      *df.frames[static_cast<std::size_t>(k % static_cast<Cycle>(df.frames.size()))];
  // The slot serving boundary k is re-armed by the completer of boundary
  // k - R. The skew bound (link_diameter()) guarantees that boundary has
  // all contributions by now, so this wait only covers an in-flight
  // completion call.
  while (slot.boundary.load(std::memory_order_acquire) != k) std::this_thread::yield();
  // This worker holds node v exactly at the boundary cycle, so this read
  // sees the same per-node state the parked barrier engine would.
  slot.add(nodes_[v]->counts());
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last contributor publishes, strictly in boundary order (sample_turn is
  // the baton; the registry's time series relies on monotonic sample calls).
  while (df.sample_turn.load(std::memory_order_acquire) != k) std::this_thread::yield();
  const NodeCounts f = slot.sum();
  sample_frame_ = &f;
  metrics_->sample(df.boundary_cycle(k));
  sample_frame_ = nullptr;
  // Re-arm this slot for boundary k + R before passing the baton.
  const Cycle next = k + static_cast<Cycle>(df.frames.size());
  slot.arm(next < df.n_boundaries ? next : -1, nodes());
  df.sample_turn.store(k + 1, std::memory_order_release);
}

void Fabric::df_plan_rebalance() {
  Dataflow& df = *df_;
  const std::size_t ntasks = df.tasks.size();
  std::vector<std::uint64_t> delta(ntasks, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ntasks; ++i) {
    delta[i] = df.tasks[i]->active_ns.load(std::memory_order_relaxed) -
               df.tasks[i]->active_snapshot;
    total += delta[i];
  }
  if (total == 0) return;
  const double mean = static_cast<double>(total) / static_cast<double>(ntasks);

  struct Part {
    std::vector<unsigned> ids;
    double cost;
  };
  bool changed = false;
  // Split pass: halve tasks that dominated the last run.
  std::vector<Part> parts;
  parts.reserve(ntasks + 4);
  for (std::size_t i = 0; i < ntasks; ++i) {
    const auto& ids = df.tasks[i]->node_ids;
    const double cost = static_cast<double>(delta[i]);
    if (cost > 1.6 * mean && ids.size() >= 2) {
      const std::size_t mid = ids.size() / 2;
      parts.push_back(Part{{ids.begin(), ids.begin() + static_cast<long>(mid)}, cost / 2});
      parts.push_back(Part{{ids.begin() + static_cast<long>(mid), ids.end()}, cost / 2});
      df.log.push_back("split task " + std::to_string(i) + " (" +
                       std::to_string(ids.size()) + " nodes, " +
                       std::to_string(cost / mean) + "x mean active_ns)");
      ++df.splits;
      changed = true;
    } else {
      parts.push_back(Part{ids, cost});
    }
  }
  // Merge pass: coalesce adjacent starved tasks, keeping at least one task
  // per worker so nobody idles by construction.
  std::vector<Part> merged;
  merged.reserve(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::size_t projected = merged.size() + (parts.size() - i);
    if (!merged.empty() && projected - 1 >= workers_ && merged.back().cost < 0.4 * mean &&
        parts[i].cost < 0.4 * mean) {
      df.log.push_back("merge tasks at node " + std::to_string(merged.back().ids.front()) +
                       " + " + std::to_string(parts[i].ids.front()) + " (both < 0.4x mean)");
      merged.back().ids.insert(merged.back().ids.end(), parts[i].ids.begin(),
                               parts[i].ids.end());
      merged.back().cost += parts[i].cost;
      ++df.merges;
      changed = true;
    } else {
      merged.push_back(std::move(parts[i]));
    }
  }
  if (!changed) return;
  df.pending_parts.clear();
  df.pending_parts.reserve(merged.size());
  for (Part& p : merged) df.pending_parts.push_back(std::move(p.ids));
  df.pending = true;
}

void Fabric::end_of_round() {
  cycles_run_ += std::min<Cycle>(cfg_.link_pipe_stages, run_target_ - cycles_run_);
  if (metrics_) metrics_->sample(cycles_run_);
  if (idle_skip_on_) maybe_skip();
}

void Fabric::maybe_skip() {
  if (cycles_run_ >= run_target_) return;
  // Global quiescence: every component of every shard idle (observers --
  // the per-node invariant checkers -- pin a shard to stepping), and every
  // channel ring drained. Any failure means at least one cell is somewhere
  // in flight, and the next round must be stepped.
  Cycle wake = kNeverWake;
  for (const auto& sp : shards_) {
    if (!sp->engine.can_skip()) return;
    Cycle w = kNeverWake;
    if (!sp->engine.quiescent_at(cycles_run_, &w)) return;
    if (w < wake) wake = w;
  }
  for (const Edge& e : edges_)
    if (!e.ring->idle_at(cycles_run_)) return;
  // Advance whole rounds while they end at or before the earliest wake
  // (components must execute the wake cycle itself), keeping the metrics
  // cadence of stepped rounds.
  bool skipped = false;
  while (cycles_run_ < run_target_) {
    const Cycle nb =
        cycles_run_ + std::min<Cycle>(cfg_.link_pipe_stages, run_target_ - cycles_run_);
    if (nb > wake) break;
    cycles_run_ = nb;
    if (metrics_) metrics_->sample(cycles_run_);
    skipped = true;
    rounds_skipped_.fetch_add(1, std::memory_order_relaxed);
  }
  // Skipping suppressed the producers' per-cycle ring writes; drop the stale
  // entries so they cannot resurface after a jump past the ring size. All
  // channels are empty here, so nothing live is lost.
  if (skipped)
    for (const Edge& e : edges_) e.ring->clear_for_skip();
}

FabricStats Fabric::stats() const {
  FabricStats st;
  st.cycles = cycles_run_;
  std::uint64_t lat_sum = 0;
  for (const auto& node : nodes_) {
    const NodeCounts c = node->counts();
    st.injected += c.generated;
    st.backlog += c.backlog;
    lat_sum += c.lat_sum;
    node->fold(st);
  }
  st.mean_latency =
      st.delivered ? static_cast<double>(lat_sum) / static_cast<double>(st.delivered) : 0.0;
  for (FabricStats::HopRow& row : st.by_hops)
    if (row.cells) row.mean_latency /= static_cast<double>(row.cells);
  const auto accounted = st.backlog + st.delivered + st.dropped();
  PMSB_CHECK(st.injected >= accounted, "fabric conservation violated");
  st.in_network = st.injected - accounted;
  return st;
}

obs::FlightRecorder Fabric::merged_flight() const {
  PMSB_CHECK(cfg_.flight_recorder, "fabric built without FabricConfig::flight_recorder");
  obs::FlightRecorderConfig fr;
  fr.warmup = cfg_.flight_warmup;
  obs::FlightRecorder merged(cfg_.node.n_ports, cfg_.node.cell_words, fr);
  for (unsigned i = 0; i < nodes(); ++i) merged.merge(*cell(i).flight);
  return merged;
}

std::vector<ShardTelemetry> Fabric::shard_telemetry() const {
  auto relayed = [this](const std::vector<unsigned>& node_ids) {
    std::uint64_t r = 0;
    for (unsigned v : node_ids) r += nodes_[v]->counts().relayed;
    return r;
  };
  std::vector<ShardTelemetry> out;
  if (cfg_.engine == FabricEngine::kDataflow) {
    const Dataflow& df = *df_;
    out.reserve(df.tasks.size());
    for (std::size_t i = 0; i < df.tasks.size(); ++i) {
      const Dataflow::Task& task = *df.tasks[i];
      ShardTelemetry t;
      t.shard = static_cast<unsigned>(i);
      t.nodes = static_cast<unsigned>(task.node_ids.size());
      t.active_ns = task.active_ns.load(std::memory_order_relaxed);
      t.blocked_on_empty_ns = task.blocked_on_empty_ns.load(std::memory_order_relaxed);
      t.blocked_on_full_ns = task.blocked_on_full_ns.load(std::memory_order_relaxed);
      t.steals = task.steals.load(std::memory_order_relaxed);
      t.rounds = task.rounds.load(std::memory_order_relaxed);
      t.cells_relayed = relayed(task.node_ids);
      out.push_back(t);
    }
    return out;
  }
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    ShardTelemetry t;
    t.shard = static_cast<unsigned>(s);
    t.nodes = static_cast<unsigned>(sh.node_ids.size());
    t.active_ns = sh.active_ns;
    t.barrier_wait_ns = sh.barrier_wait_ns;
    t.rounds = sh.rounds;
    t.cells_relayed = relayed(sh.node_ids);
    out.push_back(t);
  }
  return out;
}

FabricSchedulerStats Fabric::scheduler_stats() const {
  FabricSchedulerStats s;
  s.engine = to_string(cfg_.engine);
  s.workers = workers_;
  if (cfg_.engine == FabricEngine::kDataflow) {
    const Dataflow& df = *df_;
    s.tasks = static_cast<unsigned>(df.tasks.size());
    s.steals = df.scheduler->total_steals();
    s.splits = df.splits;
    s.merges = df.merges;
    s.rebalance_log = df.log;
    for (const Scheduler::WorkerStats& w : df.scheduler->worker_stats())
      s.per_worker.push_back(FabricSchedulerStats::Worker{w.active_ns, w.idle_ns, w.steals,
                                                          w.slices});
    return s;
  }
  s.tasks = static_cast<unsigned>(shards_.size());
  for (const auto& sp : shards_)
    s.per_worker.push_back(
        FabricSchedulerStats::Worker{sp->active_ns, sp->barrier_wait_ns, 0, sp->rounds});
  return s;
}

void Fabric::telemetry_to_perfetto(obs::PerfettoTrace& out) const {
  // Worker tracks start at tid 1000 so they never collide with the
  // component counter tracks of a TimeSeriesSampler sharing the trace; the
  // shard-stall counter track sits above them at tid 1900.
  constexpr unsigned kWorkerTidBase = 1000;
  constexpr unsigned kStallTid = 1900;
  const std::uint64_t skipped = rounds_skipped();
  if (cfg_.engine == FabricEngine::kDataflow) {
    const FabricSchedulerStats sched = scheduler_stats();
    for (std::size_t w = 0; w < sched.per_worker.size(); ++w) {
      const auto& ws = sched.per_worker[w];
      const unsigned tid = kWorkerTidBase + static_cast<unsigned>(w);
      out.set_track_name(tid, "fabric worker " + std::to_string(w) + " (wall clock)");
      const std::int64_t active_us = static_cast<std::int64_t>(ws.active_ns / 1000);
      const std::int64_t idle_us = static_cast<std::int64_t>(ws.idle_ns / 1000);
      out.complete(0, active_us, tid, "active",
                   {{"slices", static_cast<double>(ws.slices)},
                    {"steals", static_cast<double>(ws.steals)}});
      out.complete(active_us, idle_us, tid, "scheduler_idle",
                   {{"chunks_skipped", static_cast<double>(skipped)}});
    }
  } else {
    for (const ShardTelemetry& t : shard_telemetry()) {
      const unsigned tid = kWorkerTidBase + t.shard;
      out.set_track_name(tid, "fabric worker " + std::to_string(t.shard) + " (wall clock)");
      const std::int64_t active_us = static_cast<std::int64_t>(t.active_ns / 1000);
      const std::int64_t wait_us = static_cast<std::int64_t>(t.barrier_wait_ns / 1000);
      out.complete(0, active_us, tid, "active",
                   {{"nodes", static_cast<double>(t.nodes)},
                    {"rounds", static_cast<double>(t.rounds)},
                    {"cells_relayed", static_cast<double>(t.cells_relayed)}});
      out.complete(active_us, wait_us, tid, "barrier_wait",
                   {{"rounds_skipped", static_cast<double>(skipped)}});
    }
  }
  // One counter sample per shard/task (ts = shard index): stall composition
  // in microseconds, directly comparable between the engines' traces.
  out.set_track_name(kStallTid, std::string("fabric shard stalls (") +
                                    to_string(cfg_.engine) + ", us by shard index)");
  for (const ShardTelemetry& t : shard_telemetry()) {
    out.counter(static_cast<std::int64_t>(t.shard), kStallTid, "fabric.stall_us",
                {{"barrier_wait", static_cast<double>(t.barrier_wait_ns / 1000)},
                 {"blocked_on_empty", static_cast<double>(t.blocked_on_empty_ns / 1000)},
                 {"blocked_on_full", static_cast<double>(t.blocked_on_full_ns / 1000)},
                 {"steals", static_cast<double>(t.steals)}});
  }
}

}  // namespace pmsb::fabric
