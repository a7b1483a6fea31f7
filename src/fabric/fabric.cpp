#include "fabric/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "exp/sweep.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/task.hpp"
#include "obs/perfetto.hpp"
#include "traffic/spec.hpp"

namespace pmsb::fabric {
namespace {
/// The transport follows the topology kind: wormhole where its routing is
/// deadlock-free (feed-forward multistage stages, XY on a mesh), cells on
/// the wrap-around torus and ring.
bool wormhole_kind(const net::Topology& topo) {
  return topo.multistage() || topo.kind == net::TopologyKind::kMesh2D;
}

/// The fabric's one destination pattern. pick() is stateless (each endpoint
/// passes its own Rng), so nodes on different threads share it; `seed` only
/// seeds the permutation draw.
std::unique_ptr<DestPattern> fabric_dests(const traffic::GeneratorSpec& spec, unsigned n,
                                          std::uint64_t seed, SelfRule self) {
  Rng drng(mix64(seed ^ 0x517cc1b727220a95ULL));
  return spec.make_dest(n, drng, self);
}

/// Endpoint `e`'s arrival randomness, split from the fabric seed by endpoint
/// index, so it is the same under any partition.
Rng endpoint_rng(std::uint64_t seed, unsigned e) {
  return Rng(mix64(seed + 0x9e3779b97f4a7c15ULL * (e + 1)));
}

/// Largest hop distance between two connected vertices of the undirected
/// graph `adj` (breadth-first search from every vertex).
unsigned graph_diameter(const std::vector<std::vector<unsigned>>& adj) {
  const auto n = static_cast<unsigned>(adj.size());
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
}  // namespace

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
    using Kind = traffic::GeneratorSpec::Kind;
    const Kind kind = traffic::GeneratorSpec::parse(traffic).kind;
    if (kind == Kind::kBursty || kind == Kind::kPareto)
      issue(ConfigIssue::Code::kBadLoad,
            "fabrics run Bernoulli arrivals; bursty and pareto shape slot-level "
            "traffic only (got \"" + traffic + "\")");
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
// The engine.
//
// Correctness model (full argument in DESIGN.md "Fabric & parallel
// simulation"). A task owns a contiguous block of nodes and publishes
// `done` -- the cycles every owned node has fully executed. It runs a chunk
// [d, e) node after node, each node's engine from d to e, with e - d <= D.
// A node reads at cycle t the ring slot its producer wrote at t - D < d,
// i.e. in an earlier chunk, so no node reads a slot written in the same
// chunk and the order of the nodes inside a chunk does not matter (nor is a
// ring of >= 2D + 2 slots lapped inside one). Only the edges that cross
// into another task need a bound:
//
//   e <= min_U(U.done) + D            (input bound: the channel slot a node
//                                      reads at t, written at t - D, exists
//                                      once U.done > t - D)
//   e <= min_Y(Y.done) + capacity - D (credit bound: a write at t lands on
//                                      the slot aliasing cycle t - capacity,
//                                      which Y consumed strictly before its
//                                      current cycle)
//
// Both loads are seq_cst and every `done` store is seq_cst, which (a) gives
// the ring writes release/acquire visibility through the counter, and (b)
// pairs with the scheduler's blocked/wake Dekker protocol (scheduler.hpp).
// The task with the smallest `done` is always runnable (its bounds are
// strictly ahead of it), so the task graph cannot deadlock.

class Fabric::Task final : public SchedTask {
 public:
  explicit Task(Fabric* fab) : fab_(fab) {}

  Advance advance() override;
  bool can_advance() const override;

  std::vector<unsigned> node_ids;
  /// Cycles every owned node has fully executed: the only word of the task
  /// that other tasks read.
  std::atomic<Cycle> done{0};
  /// `done` of every task feeding this one across a channel (input bound)
  /// and of every task it feeds (credit bound, `credit` cycles of lead).
  std::vector<const std::atomic<Cycle>*> ins;
  std::vector<const std::atomic<Cycle>*> outs;
  Cycle credit = kNeverWake;
  std::vector<const ChannelBase*> rx;  ///< Every ring an owned node reads.
  std::vector<ChannelBase*> tx;        ///< Every ring an owned node writes.
  /// active_ns at the start of the current run (rebalance input).
  std::uint64_t active_snapshot = 0;

 private:
  /// The end (exclusive) of the furthest chunk the cross-task bounds allow
  /// from `d`; when that is no chunk at all, *blocked says which bound.
  Cycle bound(Cycle d, Advance* blocked) const;
  /// Idle skip: when every owned node is quiescent at `d` and nothing is in
  /// flight on the rings they read, jump to the earliest wake within
  /// `limit`. Returns the cycle reached (`d` when the task must step).
  Cycle skip_idle(Cycle d, Cycle limit);

  Fabric* fab_;
};

struct Fabric::Runtime {
  /// Accumulator for one in-flight round boundary's metric sample (see
  /// contribute_sample). Reused round-robin: slot j serves boundaries
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

  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<std::vector<unsigned>> wake_lists;
  std::vector<unsigned> placement;  ///< Task -> home worker.
  std::unique_ptr<Scheduler> scheduler;

  // Current run window.
  Cycle run_start = 0;
  Cycle target = 0;
  Cycle round = 1;         ///< Boundary spacing (= link_pipe_stages).
  Cycle n_boundaries = 0;  ///< Of the current run; 0 with metrics off.
  /// Frame slots a sampled run needs: every round boundary two tasks'
  /// clocks can straddle, plus slack. Allocated by the first sampled run.
  unsigned frame_ring = 0;
  std::vector<std::unique_ptr<FrameSlot>> frames;
  /// Next boundary index whose sample may be published (keeps the
  /// registry's sample() calls in boundary order).
  std::atomic<Cycle> sample_turn{0};

  // Rebalancing (planned at run end, applied at next run start).
  std::vector<std::vector<unsigned>> pending_parts;
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

Cycle Fabric::Task::bound(Cycle d, Advance* blocked) const {
  const Cycle stages = fab_->cfg_.link_pipe_stages;
  // Input bound first: it is the tighter constraint under load, and its
  // seq_cst loads double as the acquire of the upstream tasks' ring writes.
  Cycle limit = fab_->rt_->target;
  for (const std::atomic<Cycle>* in : ins)
    limit = std::min(limit, in->load(std::memory_order_seq_cst) + stages);
  if (limit <= d) {
    *blocked = Advance::kBlockedOnEmpty;
    return limit;
  }
  for (const std::atomic<Cycle>* out : outs)
    limit = std::min(limit, out->load(std::memory_order_seq_cst) + credit);
  if (limit <= d) *blocked = Advance::kBlockedOnFull;
  return limit;
}

bool Fabric::Task::can_advance() const {
  // Only the worker running this task calls this, so `done` is its own.
  const Cycle d = done.load(std::memory_order_relaxed);
  Advance blocked = Advance::kProgress;
  return d < fab_->rt_->target && bound(d, &blocked) > d;
}

Advance Fabric::Task::advance() {
  Fabric& fab = *fab_;
  const Runtime& rt = *fab.rt_;
  const Cycle d = done.load(std::memory_order_relaxed);
  if (d >= rt.target) return Advance::kFinished;
  Advance blocked = Advance::kProgress;
  Cycle limit = bound(d, &blocked);
  if (limit <= d) return blocked;
  // Land on every round boundary so this task can add its share of the
  // sample there.
  if (fab.metrics_ != nullptr) limit = std::min(limit, rt.next_boundary(d));

  Cycle end = fab.idle_skip_on_ ? skip_idle(d, limit) : d;
  if (end == d) {
    end = std::min<Cycle>(limit, d + fab.cfg_.link_pipe_stages);
    for (unsigned v : node_ids) fab.engines_[v].run(end - d);
    rounds.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish progress: the seq_cst store pairs with the neighbors' bound
  // loads (ring visibility) and with the scheduler's block/recheck protocol.
  done.store(end, std::memory_order_seq_cst);
  if (fab.metrics_ != nullptr && rt.is_boundary(end))
    fab.contribute_sample(*this, rt.boundary_index(end));
  return Advance::kProgress;
}

Cycle Fabric::Task::skip_idle(Cycle d, Cycle limit) {
  Fabric& fab = *fab_;
  Cycle wake = limit;
  for (unsigned v : node_ids) {
    const Engine& eng = fab.engines_[v];
    Cycle w = kNeverWake;
    // A cycle observer (a node's invariant checker) pins it to stepping.
    if (!eng.can_skip() || !eng.quiescent_at(d, &w)) return d;
    wake = std::min(wake, w);
  }
  // The wake cycle itself must be stepped.
  if (wake <= d) return d;
  // Inside the task every producer is quiescent. A cross-task ring idle at
  // d bounds its next arrival to cycles >= upstream done + D >= limit,
  // outside the window.
  for (const ChannelBase* ch : rx)
    if (!ch->idle_at(d)) return d;
  // Stand in for the suppressed per-cycle writes (Channel::clear_range).
  for (ChannelBase* ch : tx) ch->clear_range(d, wake);
  for (unsigned v : node_ids) fab.engines_[v].skip_to(wake);
  fab.rounds_skipped_.fetch_add(1, std::memory_order_relaxed);
  return wake;
}

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
  // Engine-local skipping stays off: a node's engine cannot see its rings,
  // so only the owning task skips, with the ring-idle check.
  engines_ = std::vector<Engine>(n);
  for (unsigned v = 0; v < n; ++v) {
    engines_[v].set_idle_skip(false);
    nodes_[v]->attach(engines_[v]);
  }
  rt_ = std::make_unique<Runtime>();
  rt_->round = cfg_.link_pipe_stages;
  rt_->scheduler = std::make_unique<Scheduler>(workers_);
  // One contiguous node block per worker (cache locality; any partition
  // yields identical results).
  std::vector<std::vector<unsigned>> parts(workers_);
  for (unsigned t = 0; t < workers_; ++t)
    for (unsigned v = t * n / workers_; v < (t + 1) * n / workers_; ++v) parts[t].push_back(v);
  apply_partition(parts);
}

Fabric::~Fabric() = default;

unsigned Fabric::link_diameter() const {
  std::vector<std::vector<unsigned>> adj(nodes());
  for (const Edge& e : edges_) {
    adj[e.producer].push_back(e.consumer);
    adj[e.consumer].push_back(e.producer);
  }
  return graph_diameter(adj);
}

void Fabric::build_cells() {
  const net::Topology& topo = cfg_.topo;
  const unsigned n = topo.nodes();
  const unsigned ports = topo.required_ports();
  codec_ = CellCodec{cfg_.node.cell_format(), bits_for(n)};
  const auto spec = traffic::GeneratorSpec::parse(cfg_.traffic);
  dests_ = fabric_dests(spec, n, cfg_.seed, SelfRule::kExcluded);
  const double cells_per_cycle = spec.load_or(cfg_.load) / cfg_.node.cell_words;

  // Identical wiring under every partition: each directed link (u, out
  // port p) gets a ring even when both endpoints share a task. The
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
    node->arrivals.per_cycle = cells_per_cycle;
    node->arrivals.src = v;
    node->arrivals.dests = dests_.get();
    node->arrivals.rng = endpoint_rng(cfg_.seed, v);
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
      traffic::Arrivals* arrivals = q == 0 ? &node->arrivals : nullptr;
      node->bridges.emplace_back(&cfg_.topo, &codec_, v, port, rx, &node->in_link(q),
                                 arrivals, &node->ejector);
    }
    for (unsigned p = 0; p < ports; ++p)
      node->taps.emplace_back(&node->out_link(p), tx[v * ports + p]);
    nodes_.push_back(std::move(node));
  }
}

void Fabric::build_worm() {
  const net::Topology& topo = cfg_.topo;
  const unsigned n = topo.nodes();
  const unsigned ports = topo.required_ports();
  const auto spec = traffic::GeneratorSpec::parse(cfg_.traffic);
  dests_ = fabric_dests(spec, topo.endpoints(), cfg_.seed, SelfRule::kAllowed);

  WormParams wp;
  wp.lanes = cfg_.lanes;
  wp.lane_depth = cfg_.buffer_flits / cfg_.lanes;
  wp.message_flits = cfg_.message_flits;
  wp.messages_per_cycle = spec.load_or(cfg_.load) / cfg_.message_flits;

  std::vector<WormRouter*> routers;
  nodes_.reserve(n);
  for (unsigned v = 0; v < n; ++v) {
    auto r = std::make_unique<WormRouter>(&cfg_.topo, v, wp, dests_.get());
    routers.push_back(r.get());
    nodes_.push_back(std::move(r));
  }

  // Links (u, out p) -> (v, in q): a forward flit ring u -> v plus a
  // reverse credit ring v -> u per link, identical wiring under every
  // partition. Mesh edges and last-stage outputs have no neighbor.
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

  // Endpoints: on a mesh, endpoint v is router v's kLocal port both ways;
  // on a multistage network, sources sit on the first stage's inputs and
  // sinks on the last stage's outputs.
  if (!topo.multistage()) {
    for (unsigned v = 0; v < n; ++v) {
      routers[v]->add_source(net::kLocal, v, endpoint_rng(cfg_.seed, v));
      routers[v]->add_sink(net::kLocal, v);
    }
    return;
  }
  for (unsigned e = 0; e < topo.endpoints(); ++e) {
    const auto [v, q] = topo.ingress_of(e);
    routers[v]->add_source(q, e, endpoint_rng(cfg_.seed, e));
  }
  for (unsigned el = 0; el < topo.elements_per_stage(); ++el) {
    const unsigned v = topo.node_id(topo.stages() - 1, el);
    for (unsigned p = 0; p < ports; ++p) routers[v]->add_sink(p, topo.egress_endpoint(v, p));
  }
}

void Fabric::apply_partition(const std::vector<std::vector<unsigned>>& parts) {
  Runtime& rt = *rt_;
  const unsigned n = nodes();
  const std::size_t ntasks = parts.size();
  std::vector<unsigned> task_of(n, 0);
  rt.tasks.clear();
  for (std::size_t t = 0; t < ntasks; ++t) {
    PMSB_CHECK(!parts[t].empty(), "empty task in fabric partition");
    auto task = std::make_unique<Task>(this);
    task->node_ids = parts[t];
    task->done.store(cycles_run_, std::memory_order_relaxed);
    for (unsigned v : parts[t]) task_of[v] = static_cast<unsigned>(t);
    rt.tasks.push_back(std::move(task));
  }
  // Every edge feeds its consumer's idle check and its producer's skip
  // compensation. An edge between two tasks also makes the consumer wait
  // for the producer's progress (input bound) and the producer for the
  // consumer's (write credit). A wormhole link's credit edge points the
  // other way, so its two tasks bound each other in both directions.
  std::vector<std::vector<unsigned>> ups(ntasks), downs(ntasks);
  for (const Edge& e : edges_) {
    const unsigned tp = task_of[e.producer];
    const unsigned tc = task_of[e.consumer];
    rt.tasks[tc]->rx.push_back(e.ring.get());
    rt.tasks[tp]->tx.push_back(e.ring.get());
    if (tp == tc) continue;
    ups[tc].push_back(tp);
    downs[tp].push_back(tc);
    Cycle& credit = rt.tasks[tp]->credit;
    credit = std::min(credit, static_cast<Cycle>(e.ring->capacity()) -
                                  static_cast<Cycle>(cfg_.link_pipe_stages));
    PMSB_CHECK(credit > 0, "channel ring smaller than its own delay");
  }
  auto dedupe = [](std::vector<unsigned>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  // Wake lists: the tasks on the other end of any of this task's channels.
  rt.wake_lists.assign(ntasks, {});
  for (std::size_t t = 0; t < ntasks; ++t) {
    dedupe(ups[t]);
    dedupe(downs[t]);
    Task& task = *rt.tasks[t];
    for (unsigned u : ups[t]) task.ins.push_back(&rt.tasks[u]->done);
    for (unsigned y : downs[t]) task.outs.push_back(&rt.tasks[y]->done);
    std::vector<unsigned>& nbrs = rt.wake_lists[t];
    nbrs = ups[t];
    nbrs.insert(nbrs.end(), downs[t].begin(), downs[t].end());
    dedupe(nbrs);
  }
  // Home workers follow the node index (neighboring tasks share a worker);
  // stealing takes it from there.
  rt.placement.resize(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    const unsigned w = static_cast<unsigned>(
        static_cast<std::uint64_t>(parts[t].front()) * workers_ / n);
    rt.placement[t] = std::min(w, workers_ - 1);
  }
  // Every link carries edges both ways (a cell link each direction, or a
  // wormhole data ring plus its credit ring), so the input bounds keep two
  // neighboring tasks' clocks within one round of each other, and two tasks
  // within the task-graph diameter in rounds.
  rt.frame_ring = graph_diameter(rt.wake_lists) + 4;
}

NodeCounts Fabric::live_counts() const {
  NodeCounts c;
  for (const auto& node : nodes_) c += node->counts();
  return c;
}

void Fabric::register_metrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  if (!m) return;
  // The gauges fire inside a boundary-frame publication (contribute_sample)
  // while other tasks keep advancing, so they read the assembled frame;
  // outside a run they read live state. Values are identical.
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
  Runtime& rt = *rt_;
  if (!rt.pending_parts.empty()) {
    apply_partition(rt.pending_parts);
    rt.pending_parts.clear();
  }
  rt.run_start = cycles_run_;
  rt.target = cycles_run_ + cycles;
  rt.n_boundaries = 0;
  if (metrics_ != nullptr) {
    rt.n_boundaries = (cycles + rt.round - 1) / rt.round;
    rt.sample_turn.store(0, std::memory_order_relaxed);
    rt.frames.resize(rt.frame_ring);
    for (std::size_t j = 0; j < rt.frames.size(); ++j) {
      if (!rt.frames[j]) rt.frames[j] = std::make_unique<Runtime::FrameSlot>();
      const Cycle k = static_cast<Cycle>(j);
      rt.frames[j]->arm(k < rt.n_boundaries ? k : -1, static_cast<unsigned>(rt.tasks.size()));
    }
  }
  std::vector<SchedTask*> tasks;
  tasks.reserve(rt.tasks.size());
  for (auto& t : rt.tasks) {
    t->active_snapshot = t->active_ns.load(std::memory_order_relaxed);
    tasks.push_back(t.get());
  }
  if (workers_ == 1) {
    rt.scheduler->run(tasks, rt.wake_lists, rt.placement);
  } else {
    if (!pool_) {
      exp::ThreadPoolOptions po;
      if (exp::pin_threads_env())
        po.on_worker_start = [](unsigned w) { exp::pin_current_thread(w); };
      pool_ = std::make_unique<exp::ThreadPool>(workers_, std::move(po));
    }
    rt.scheduler->run(*pool_, tasks, rt.wake_lists, rt.placement);
  }

  cycles_run_ = rt.target;
  for (const auto& t : rt.tasks)
    PMSB_CHECK(t->done.load(std::memory_order_relaxed) == rt.target,
               "fabric task stopped short of the run target");
  if (metrics_ != nullptr)
    PMSB_CHECK(rt.sample_turn.load(std::memory_order_relaxed) == rt.n_boundaries,
               "fabric run finished with unpublished samples");
  plan_rebalance();
}

void Fabric::contribute_sample(const Task& task, Cycle k) {
  Runtime& rt = *rt_;
  Runtime::FrameSlot& slot =
      *rt.frames[static_cast<std::size_t>(k % static_cast<Cycle>(rt.frames.size()))];
  // The slot serving boundary k is re-armed by the completer of boundary
  // k - R. The skew bound (the task-graph diameter) guarantees that
  // boundary has all contributions by now, so this wait only covers an
  // in-flight completion call.
  while (slot.boundary.load(std::memory_order_acquire) != k) std::this_thread::yield();
  // This worker holds the task's nodes exactly at the boundary cycle, so
  // these reads see the state a stepped-to-the-boundary fabric would.
  NodeCounts c;
  for (unsigned v : task.node_ids) c += nodes_[v]->counts();
  slot.add(c);
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last contributor publishes, strictly in boundary order (sample_turn is
  // the baton; the registry's time series relies on monotonic sample calls).
  while (rt.sample_turn.load(std::memory_order_acquire) != k) std::this_thread::yield();
  const NodeCounts f = slot.sum();
  sample_frame_ = &f;
  metrics_->sample(rt.boundary_cycle(k));
  sample_frame_ = nullptr;
  // Re-arm this slot for boundary k + R before passing the baton.
  const Cycle next = k + static_cast<Cycle>(rt.frames.size());
  slot.arm(next < rt.n_boundaries ? next : -1, static_cast<unsigned>(rt.tasks.size()));
  rt.sample_turn.store(k + 1, std::memory_order_release);
}

void Fabric::plan_rebalance() {
  Runtime& rt = *rt_;
  const std::size_t ntasks = rt.tasks.size();
  std::vector<std::uint64_t> delta(ntasks, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ntasks; ++i) {
    delta[i] = rt.tasks[i]->active_ns.load(std::memory_order_relaxed) -
               rt.tasks[i]->active_snapshot;
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
    const auto& ids = rt.tasks[i]->node_ids;
    const double cost = static_cast<double>(delta[i]);
    if (cost > 1.6 * mean && ids.size() >= 2) {
      const std::size_t mid = ids.size() / 2;
      parts.push_back(Part{{ids.begin(), ids.begin() + static_cast<long>(mid)}, cost / 2});
      parts.push_back(Part{{ids.begin() + static_cast<long>(mid), ids.end()}, cost / 2});
      rt.log.push_back("split task " + std::to_string(i) + " (" +
                       std::to_string(ids.size()) + " nodes, " +
                       std::to_string(cost / mean) + "x mean active_ns)");
      ++rt.splits;
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
      rt.log.push_back("merge tasks at node " + std::to_string(merged.back().ids.front()) +
                       " + " + std::to_string(parts[i].ids.front()) + " (both < 0.4x mean)");
      merged.back().ids.insert(merged.back().ids.end(), parts[i].ids.begin(),
                               parts[i].ids.end());
      merged.back().cost += parts[i].cost;
      ++rt.merges;
      changed = true;
    } else {
      merged.push_back(std::move(parts[i]));
    }
  }
  if (!changed) return;
  rt.pending_parts.clear();
  rt.pending_parts.reserve(merged.size());
  for (Part& p : merged) rt.pending_parts.push_back(std::move(p.ids));
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
  std::vector<ShardTelemetry> out;
  out.reserve(rt_->tasks.size());
  for (std::size_t i = 0; i < rt_->tasks.size(); ++i) {
    const Task& task = *rt_->tasks[i];
    ShardTelemetry t;
    t.shard = static_cast<unsigned>(i);
    t.nodes = static_cast<unsigned>(task.node_ids.size());
    t.active_ns = task.active_ns.load(std::memory_order_relaxed);
    t.barrier_wait_ns = task.wait_ns.load(std::memory_order_relaxed);
    t.blocked_on_empty_ns = task.blocked_on_empty_ns.load(std::memory_order_relaxed);
    t.blocked_on_full_ns = task.blocked_on_full_ns.load(std::memory_order_relaxed);
    t.steals = task.steals.load(std::memory_order_relaxed);
    t.rounds = task.rounds.load(std::memory_order_relaxed);
    for (unsigned v : task.node_ids) t.cells_relayed += nodes_[v]->counts().relayed;
    out.push_back(t);
  }
  return out;
}

FabricSchedulerStats Fabric::scheduler_stats() const {
  const Runtime& rt = *rt_;
  FabricSchedulerStats s;
  s.workers = workers_;
  s.tasks = static_cast<unsigned>(rt.tasks.size());
  s.steals = rt.scheduler->total_steals();
  s.splits = rt.splits;
  s.merges = rt.merges;
  s.rebalance_log = rt.log;
  for (const Scheduler::WorkerStats& w : rt.scheduler->worker_stats())
    s.per_worker.push_back(FabricSchedulerStats::Worker{w.active_ns, w.idle_ns, w.steals,
                                                        w.slices});
  return s;
}

void Fabric::telemetry_to_perfetto(obs::PerfettoTrace& out) const {
  // Worker tracks start at tid 1000 so they never collide with the
  // component counter tracks of a TimeSeriesSampler sharing the trace; the
  // task-stall counter track sits above them at tid 1900.
  constexpr unsigned kWorkerTidBase = 1000;
  constexpr unsigned kStallTid = 1900;
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
                 {{"chunks_skipped", static_cast<double>(rounds_skipped())}});
  }
  // One counter sample per task (ts = task index): stall composition in
  // microseconds.
  out.set_track_name(kStallTid, "fabric shard stalls (us by task index)");
  for (const ShardTelemetry& t : shard_telemetry()) {
    out.counter(static_cast<std::int64_t>(t.shard), kStallTid, "fabric.stall_us",
                {{"barrier_wait", static_cast<double>(t.barrier_wait_ns / 1000)},
                 {"blocked_on_empty", static_cast<double>(t.blocked_on_empty_ns / 1000)},
                 {"blocked_on_full", static_cast<double>(t.blocked_on_full_ns / 1000)},
                 {"steals", static_cast<double>(t.steals)}});
  }
}

}  // namespace pmsb::fabric
