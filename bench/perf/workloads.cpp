// The benchmark's five workloads. Each one builds its system through public
// library calls only and leaves every engine / idle-skip / rebalance /
// task-grain field at its default, so the program measured is the one users
// get. README.md records why each workload exists and which layer metrics
// should move it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perf.hpp"

#include "arch/admission.hpp"
#include "arch/shared_buffer.hpp"
#include "common/rng.hpp"
#include "core/testbench.hpp"
#include "exp/sweep.hpp"
#include "fabric/fabric.hpp"
#include "net/topology.hpp"
#include "traffic/spec.hpp"

namespace pmsb::perf {
namespace {

/// Percentile of the samples a histogram gained since `base` (bucket counts
/// snapshotted at warm-up): the smallest bucket upper bound whose cumulative
/// count reaches q of the window.
std::uint64_t window_percentile(const HdrHistogram& h, const std::vector<std::uint64_t>& base,
                                double q, std::uint64_t window_samples) {
  if (window_samples == 0) return 0;
  // Rank ceil(q * n), with a 1e-6 tolerance for floating-point error.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(window_samples) + 0.999999));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    seen += h.count_at(i) - (i < base.size() ? base[i] : 0);
    if (seen >= target) return h.bucket_high(i);
  }
  return h.max();
}

std::vector<std::uint64_t> bucket_counts(const HdrHistogram& h) {
  std::vector<std::uint64_t> c(h.bucket_count());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = h.count_at(i);
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// switch16_sat: one saturated 16-port PipelinedSwitch under the library's
// reference scoreboard (payload, per-pair FIFO order, conservation).
// ---------------------------------------------------------------------------

class SwitchSat final : public System {
 public:
  explicit SwitchSat(const RunParams& p)
      : p_(p),
        cfg_(SwitchConfig::for_ports(16)),
        tb_(cfg_, cfg_.n_ports, cfg_.cell_format(), traffic(p.seed), /*scoreboard=*/true) {
    SwitchEvents ev;
    ev.on_read_grant = [this](unsigned out, unsigned in, Cycle tr, Cycle, Cycle a0, bool) {
      digest_ = mix64(digest_ ^ (static_cast<std::uint64_t>(tr) * 0x9e3779b97f4a7c15ULL) ^
                      (static_cast<std::uint64_t>(a0) << 12) ^ (out << 6) ^ in);
    };
    sub_ = tb_.dut().events().subscribe(std::move(ev));
    tb_.run(1);
  }

  void run_chunk() override {
    const std::int64_t t0 = now_ns();
    tb_.run(p_.chunk);
    active_ns_ += static_cast<double>(now_ns() - t0);
  }

  void mark_warm() override {
    Scoreboard& sb = tb_.scoreboard();
    warm_cycle_ = tb_.engine().now();
    sb.latency().set_warmup(warm_cycle_);
    warm_injected_ = sb.injected();
    warm_delivered_ = sb.delivered();
    warm_dropped_ = sb.dropped();
  }

  Simulated simulated() override {
    const Scoreboard& sb = tb_.scoreboard();
    const double cycles = static_cast<double>(tb_.engine().now() - warm_cycle_);
    Simulated s;
    const double words =
        static_cast<double>(sb.delivered() - warm_delivered_) * cfg_.cell_words;
    s.carried_load = ratio(words, cfg_.n_ports * cycles);
    s.latency_p50 = sb.latency().p50();
    s.latency_p99 = sb.latency().p99();
    s.latency_samples = sb.latency().samples();
    s.loss_ratio = ratio(static_cast<double>(sb.dropped() - warm_dropped_),
                         static_cast<double>(sb.injected() - warm_injected_));
    s.injected = sb.injected();
    s.delivered = sb.delivered();
    s.dropped = sb.dropped();
    s.digest = digest_;
    return s;
  }

  Checks check() override {
    const Scoreboard& sb = tb_.scoreboard();
    Checks c;
    c.attempted = sb.delivered();
    c.order_errors = sb.errors().size();
    if (!sb.ok()) c.notes.push_back("scoreboard: " + sb.errors().front());
    // Cells whose head entered but which were neither delivered nor dropped
    // sit in the switch: at most the buffer plus one cell per input latch
    // window and one per output transmission.
    const std::uint64_t settled = sb.delivered() + sb.dropped();
    const std::uint64_t bound = cfg_.capacity_cells() + 3ull * cfg_.n_ports;
    if (sb.injected() < settled || sb.injected() - settled > bound) {
      ++c.conservation_errors;
      c.notes.push_back("conservation: injected " + std::to_string(sb.injected()) +
                        " vs delivered+dropped " + std::to_string(settled));
    }
    return c;
  }

  Named counters() override {
    const PipelinedSwitch& sw = tb_.dut();
    const SwitchStats& st = sw.stats();
    double sram = 0;
    for (unsigned s = 0; s < sw.memory().stages(); ++s)
      sram += static_cast<double>(sw.memory().bank(s).total_reads() +
                                  sw.memory().bank(s).total_writes());
    return {{"core.cycles", static_cast<double>(st.cycles)},
            {"rtl.wave_initiations", static_cast<double>(sw.memory().initiations())},
            {"rtl.sram_accesses", sram},
            {"core.read_stall_cycles", static_cast<double>(st.read_stall_cycles)},
            {"core.cut_through_cells", static_cast<double>(st.cut_through_cells)}};
  }

  Named work() override {
    return {{"core.switch_port_cycle_ns.p16",
             static_cast<double>(tb_.engine().now()) * cfg_.n_ports}};
  }

  double active_ns() override { return active_ns_; }

 private:
  static TrafficSpec traffic(std::uint64_t seed) {
    TrafficSpec t;
    t.arrivals = ArrivalKind::kSaturated;
    t.pattern = PatternKind::kUniform;
    t.load = 1.0;
    t.seed = seed;
    return t;
  }

  RunParams p_;
  SwitchConfig cfg_;
  PipelinedTestbench tb_;
  Subscription sub_;
  std::uint64_t digest_ = 0;
  Cycle warm_cycle_ = 0;
  std::uint64_t warm_injected_ = 0;
  std::uint64_t warm_delivered_ = 0;
  std::uint64_t warm_dropped_ = 0;
  double active_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Fabric workloads: cell fabrics on the torus and the wormhole banyan.
// ---------------------------------------------------------------------------

class FabricRun final : public System {
 public:
  FabricRun(const fabric::FabricConfig& cfg, const RunParams& p)
      : p_(p), fab_(fabric::Fabric::build(cfg.topo, cfg)) {
    fab_->run(1);
  }

  void run_chunk() override { fab_->run(p_.chunk); }

  void mark_warm() override {
    warm_ = fab_->stats();
    warm_cycle_ = fab_->now();
    warm_buckets_ = bucket_counts(warm_.latency);
  }

  Simulated simulated() override {
    const fabric::FabricStats st = fab_->stats();
    const net::Topology& topo = fab_->config().topo;
    const double cycles = static_cast<double>(fab_->now() - warm_cycle_);
    const double cell_words = fab_->config().node.cell_words;
    const double words =
        fab_->wormhole() ? static_cast<double>(st.flits_delivered - warm_.flits_delivered)
                         : static_cast<double>(st.delivered - warm_.delivered) * cell_words;
    const std::uint64_t window = st.latency.samples() - warm_.latency.samples();
    Simulated s;
    s.carried_load = ratio(words, topo.endpoints() * cycles);
    s.latency_p50 = window_percentile(st.latency, warm_buckets_, 0.50, window);
    s.latency_p99 = window_percentile(st.latency, warm_buckets_, 0.99, window);
    s.latency_samples = window;
    s.loss_ratio = ratio(static_cast<double>(st.dropped() - warm_.dropped()),
                         static_cast<double>(st.injected - warm_.injected));
    s.injected = st.injected;
    s.delivered = st.delivered;
    s.dropped = st.dropped();
    s.digest = st.uid_digest;
    return s;
  }

  Checks check() override {
    // stats() itself aborts if injected < delivered + dropped + backlog; the
    // remainder (in_network) must fit what the fabric can physically hold.
    const fabric::FabricStats st = fab_->stats();
    const fabric::FabricConfig& cfg = fab_->config();
    const std::uint64_t links = links_count();
    const std::uint64_t hold =
        links * (cfg.link_pipe_stages + 1) +
        (fab_->wormhole()
             ? static_cast<std::uint64_t>(fab_->nodes()) * ports() * cfg.lanes +
                   static_cast<std::uint64_t>(cfg.topo.endpoints()) * cfg.lanes
             : static_cast<std::uint64_t>(fab_->nodes()) *
                   (cfg.node.capacity_cells() + 8ull * cfg.node.n_ports));
    Checks c;
    c.attempted = st.delivered;
    c.payload_errors = st.payload_errors;
    if (st.payload_errors != 0)
      c.notes.push_back("payload: " + std::to_string(st.payload_errors) +
                        " corrupted deliveries");
    if (st.in_network > hold) {
      ++c.conservation_errors;
      c.notes.push_back("conservation: " + std::to_string(st.in_network) +
                        " in network exceeds what the fabric can hold (" +
                        std::to_string(hold) + ")");
    }
    return c;
  }

  Named counters() override {
    Named out;
    double wait = 0, empty = 0, full = 0, steals = 0, rounds = 0, relayed = 0;
    for (const fabric::ShardTelemetry& t : fab_->shard_telemetry()) {
      wait += static_cast<double>(t.barrier_wait_ns);
      empty += static_cast<double>(t.blocked_on_empty_ns);
      full += static_cast<double>(t.blocked_on_full_ns);
      steals += static_cast<double>(t.steals);
      rounds += static_cast<double>(t.rounds);
      relayed += static_cast<double>(t.cells_relayed);
    }
    const fabric::FabricSchedulerStats sched = fab_->scheduler_stats();
    double w_active = 0, w_idle = 0, slices = 0;
    for (const auto& w : sched.per_worker) {
      w_active += static_cast<double>(w.active_ns);
      w_idle += static_cast<double>(w.idle_ns);
      slices += static_cast<double>(w.slices);
    }
    out.push_back(
        {fab_->wormhole() ? "fabric.flits_forwarded" : "fabric.cells_relayed", relayed});
    out.push_back({"fabric.rounds", rounds});
    out.push_back({"fabric.rounds_skipped", static_cast<double>(fab_->rounds_skipped())});
    out.push_back({"fabric.sched_slices", slices});
    out.push_back({"fabric.sched_active_ms", w_active / 1e6});
    out.push_back({"fabric.sched_idle_ms", w_idle / 1e6});
    out.push_back({"fabric.sched_steals", steals});
    out.push_back({"fabric.barrier_wait_ms", wait / 1e6});
    out.push_back({"fabric.blocked_on_empty_ms", empty / 1e6});
    out.push_back({"fabric.blocked_on_full_ms", full / 1e6});
    if (fab_->wormhole()) {
      const fabric::FabricStats st = fab_->stats();
      out.push_back(
          {"fabric.worm_flit_hops", forwarded() + static_cast<double>(st.flits_delivered)});
      out.push_back({"fabric.link_cycles",
                     static_cast<double>(links_count()) * static_cast<double>(fab_->now())});
    } else {
      double stall = 0, cycles = 0;
      for (unsigned i = 0; i < fab_->nodes(); ++i) {
        if (fab_->node_is_fast(i)) continue;
        stall += static_cast<double>(fab_->node_switch(i).stats().read_stall_cycles);
        cycles += static_cast<double>(fab_->node_switch(i).stats().cycles);
      }
      out.push_back({"core.cycles", cycles});
      out.push_back({"core.read_stall_cycles", stall});
    }
    return out;
  }

  Named work() override {
    const double now = static_cast<double>(fab_->now());
    const double links = static_cast<double>(links_count());
    if (fab_->wormhole()) {
      const fabric::FabricStats st = fab_->stats();
      return {{"fabric.worm_flit_ns", forwarded() + static_cast<double>(st.flits_delivered)},
              // Every link carries a flit ring and a reverse credit ring.
              {"fabric.ring_flit_ns", 2 * links * now}};
    }
    double fast = 0, relayed = 0;
    for (unsigned i = 0; i < fab_->nodes(); ++i) fast += fab_->node_is_fast(i) ? 1 : 0;
    for (const fabric::ShardTelemetry& t : fab_->shard_telemetry())
      relayed += static_cast<double>(t.cells_relayed);
    const double ports = fab_->config().node.n_ports;
    const double accurate = fab_->nodes() - fast;
    return {{"core.switch_port_cycle_ns.p4", accurate * ports * now},
            {"core.fast_switch_port_cycle_ns.p4", fast * ports * now},
            {"fabric.bridge_cell_ns", relayed + static_cast<double>(fab_->stats().delivered)},
            {"fabric.ring_flit_ns", links * now}};
  }

  double active_ns() override {
    double a = 0;
    for (const fabric::ShardTelemetry& t : fab_->shard_telemetry())
      a += static_cast<double>(t.active_ns);
    return a;
  }

  void to_perfetto(obs::PerfettoTrace& tr, std::int64_t) override {
    fab_->telemetry_to_perfetto(tr);
  }

 private:
  unsigned ports() const { return fab_->config().topo.required_ports(); }
  std::uint64_t links_count() const {
    const net::Topology& topo = fab_->config().topo;
    std::uint64_t n = 0;
    for (unsigned v = 0; v < topo.nodes(); ++v)
      for (unsigned p = 0; p < ports(); ++p) n += topo.neighbor(v, p) >= 0 ? 1 : 0;
    return n;
  }
  double forwarded() const {
    double f = 0;
    for (unsigned i = 0; i < fab_->nodes(); ++i)
      f += static_cast<double>(fab_->node_router(i).flits_forwarded());
    return f;
  }

  RunParams p_;
  std::unique_ptr<fabric::Fabric> fab_;
  fabric::FabricStats warm_;
  Cycle warm_cycle_ = 0;
  std::vector<std::uint64_t> warm_buckets_;
};

fabric::FabricConfig torus_config(const RunParams& p) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 8, 8};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 8;
  cfg.load = 0.45;
  cfg.seed = p.seed;
  cfg.threads = p.threads;
  return cfg;
}

std::unique_ptr<System> build_switch16(const RunParams& p) {
  return std::make_unique<SwitchSat>(p);
}

std::unique_ptr<System> build_torus_uniform(const RunParams& p) {
  return std::make_unique<FabricRun>(torus_config(p), p);
}

std::unique_ptr<System> build_torus_hotquad(const RunParams& p) {
  fabric::FabricConfig cfg = torus_config(p);
  // Cycle-accurate top-left 4x4 quadrant, FastSwitch everywhere else.
  cfg.fast_node = [](unsigned node) { return !(node % 8 < 4 && node / 8 < 4); };
  return std::make_unique<FabricRun>(cfg, p);
}

std::unique_ptr<System> build_banyan(const RunParams& p) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kBanyan, 32, 1};
  cfg.link_pipe_stages = 1;
  cfg.lanes = 4;
  cfg.buffer_flits = 16;
  cfg.message_flits = 8;
  cfg.traffic = "hotsenders:0.25,0.95";
  cfg.seed = p.seed;
  cfg.threads = p.threads;
  return std::make_unique<FabricRun>(cfg, p);
}

// ---------------------------------------------------------------------------
// slot_sweep: 16 SharedBufferModel points on one SweepRunner per round.
// ---------------------------------------------------------------------------

constexpr unsigned kSweepPorts = 16;
constexpr std::size_t kSweepPool = 64;      // 4 cells per output, as bench_buffer_sharing.
constexpr std::size_t kSweepStaticCap = 16; // A quarter of the pool per output.

struct SweepPoint {
  unsigned index;
  bool dynamic_threshold;
  bool pareto;
  double load;
};

struct PointResult {
  double throughput = 0;
  FlowCounts measured;
  std::uint64_t injected = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t samples = 0;
  std::uint64_t lat_sum = 0;
  std::uint64_t peak = 0;
  bool conserved = true;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  bool same_simulation(const PointResult& o) const {
    return throughput == o.throughput && measured.injected == o.measured.injected &&
           measured.delivered == o.measured.delivered &&
           measured.dropped == o.measured.dropped && p50 == o.p50 && p99 == o.p99 &&
           samples == o.samples && lat_sum == o.lat_sum && peak == o.peak;
  }
};

class SlotSweep final : public System {
 public:
  explicit SlotSweep(const RunParams& p) : p_(p), runner_(p.threads) {
    for (unsigned policy = 0; policy < 2; ++policy)
      for (unsigned shape = 0; shape < 2; ++shape)
        for (double load : {0.6, 0.7, 0.8, 0.9})
          points_.push_back(
              {static_cast<unsigned>(points_.size()), policy == 1, shape == 1, load});
    run_round(1);
  }

  void run_chunk() override {
    rounds_.push_back(run_round(p_.chunk));
    const std::vector<PointResult>& r = rounds_.back();
    for (std::size_t i = 0; i < r.size(); ++i) {
      mismatches_ += r[i].same_simulation(rounds_.front()[i]) ? 0 : 1;
      active_ns_ += static_cast<double>(r[i].end_ns - r[i].start_ns);
    }
  }

  void mark_warm() override {}

  Simulated simulated() override {
    // The reported point: dynamic threshold, Pareto bursts, load 0.9.
    const PointResult& hot = rounds_.back().at(kReportedPoint);
    Simulated s;
    s.carried_load = hot.throughput;
    s.latency_p50 = hot.p50;
    s.latency_p99 = hot.p99;
    s.latency_samples = hot.samples;
    s.loss_ratio = hot.measured.loss_ratio();
    s.injected = hot.measured.injected;
    s.delivered = hot.measured.delivered;
    s.dropped = hot.measured.dropped;
    // Every point goes into the digest, so golden.json pins all 16.
    std::uint64_t d = 0;
    for (const PointResult& r : rounds_.back()) {
      for (std::uint64_t v : {r.measured.injected, r.measured.delivered, r.measured.dropped,
                              r.p50, r.p99, r.samples, r.lat_sum, r.peak, r.injected})
        d = mix64(d ^ v);
    }
    s.digest = d;
    return s;
  }

  Checks check() override {
    Checks c;
    for (const PointResult& r : rounds_.back()) {
      c.attempted += r.measured.delivered;
      if (!r.conserved) ++c.conservation_errors;
    }
    if (c.conservation_errors != 0)
      c.notes.push_back("conservation: " + std::to_string(c.conservation_errors) +
                        " points lost or invented cells");
    if (mismatches_ != 0) {
      c.order_errors += mismatches_;
      c.notes.push_back("determinism: " + std::to_string(mismatches_) +
                        " point results differed between rounds");
    }
    return c;
  }

  Named counters() override {
    const double rounds = static_cast<double>(rounds_.size());
    return {{"exp.rounds", rounds},
            {"exp.points_run", rounds * static_cast<double>(points_.size())},
            {"arch.slots", rounds * static_cast<double>(points_.size()) *
                               static_cast<double>(p_.chunk)},
            {"exp.round_mismatches", static_cast<double>(mismatches_)}};
  }

  Named work() override {
    // Half the points run each policy.
    const double slots = static_cast<double>(rounds_.size()) * static_cast<double>(p_.chunk) *
                         static_cast<double>(points_.size() / 2);
    return {{"arch.shared_buffer_slot_ns", slots}, {"arch.dt_policy_slot_ns", slots}};
  }

  double active_ns() override { return active_ns_; }

  void to_perfetto(obs::PerfettoTrace& tr, std::int64_t origin_ns) override {
    constexpr unsigned kPointTidBase = 100;
    for (const SweepPoint& pt : points_) {
      char name[64];
      std::snprintf(name, sizeof name, "point %u: %s %s load %.1f (wall clock)", pt.index,
                    pt.dynamic_threshold ? "dt" : "static", pt.pareto ? "pareto" : "uniform",
                    pt.load);
      tr.set_track_name(kPointTidBase + pt.index, name);
    }
    for (std::size_t round = 0; round < rounds_.size(); ++round) {
      for (std::size_t i = 0; i < rounds_[round].size(); ++i) {
        const PointResult& r = rounds_[round][i];
        tr.complete((r.start_ns - origin_ns) / 1000, (r.end_ns - r.start_ns) / 1000,
                    kPointTidBase + static_cast<unsigned>(i), "round " + std::to_string(round));
      }
    }
  }

 private:
  static constexpr std::size_t kReportedPoint = 15;

  std::vector<PointResult> run_round(Cycle slots) {
    const std::uint64_t seed = p_.seed;
    return runner_.map(points_, [slots, seed](const SweepPoint& pt) {
      PointResult r;
      r.start_ns = now_ns();
      std::unique_ptr<AdmissionPolicy> policy;
      if (pt.dynamic_threshold)
        policy = std::make_unique<DynamicThresholdPolicy>(1.0);
      else
        policy = std::make_unique<StaticCapPolicy>(kSweepStaticCap);
      SharedBufferModel model(kSweepPorts, kSweepPool, std::move(policy));
      char spec_text[48];
      if (pt.pareto)
        std::snprintf(spec_text, sizeof spec_text, "pareto:%.1f,1.4,16", pt.load);
      else
        std::snprintf(spec_text, sizeof spec_text, "uniform:%.1f", pt.load);
      const auto spec = traffic::GeneratorSpec::parse(spec_text);
      Rng rng(mix64(seed * 0x9e3779b97f4a7c15ULL + pt.index));
      std::unique_ptr<DestPattern> dests = spec.make_dest(kSweepPorts, rng);
      SlotTraffic traffic =
          spec.make_slot_traffic(kSweepPorts, pt.load, dests.get(), rng.split());
      run_slot_sim(model, traffic, slots, slots / 5);
      r.throughput = measured_throughput(model, slots);
      r.measured = model.measured_counts();
      r.injected = model.counts().injected;
      r.p50 = model.latency().p50();
      r.p99 = model.latency().p99();
      r.samples = model.latency().samples();
      r.lat_sum = model.latency().histogram().sum();
      r.peak = model.peak_occupancy();
      r.conserved =
          model.counts().injected == model.counts().delivered + model.counts().dropped +
                                         model.resident();
      r.end_ns = now_ns();
      return r;
    });
  }

  RunParams p_;
  exp::SweepRunner runner_;
  std::vector<SweepPoint> points_;
  std::vector<std::vector<PointResult>> rounds_;  ///< Timed and warm-up rounds, in order.
  std::uint64_t mismatches_ = 0;  ///< Point results that differ from the first round's.
  double active_ns_ = 0;
};

std::unique_ptr<System> build_slot_sweep(const RunParams& p) {
  return std::make_unique<SlotSweep>(p);
}

}  // namespace

Named with_ratios(Named counts) {
  auto get = [&counts](const char* name) -> const double* {
    for (const auto& [k, v] : counts)
      if (k == name) return &v;
    return nullptr;
  };
  // Useful outcomes over attempts, each added only when its counters exist.
  const struct {
    const char* name;
    const char* num;
    const char* den;
    const char* den_extra;  ///< Added to the denominator, or null.
  } kRatios[] = {
      {"core.stalled_read_ratio", "core.read_stall_cycles", "core.cycles", nullptr},
      {"fabric.skip_ratio", "fabric.rounds_skipped", "fabric.rounds", "fabric.rounds_skipped"},
      {"fabric.sched_busy_fraction", "fabric.sched_active_ms", "fabric.sched_active_ms",
       "fabric.sched_idle_ms"},
      {"fabric.sched_useful_slice_ratio", "fabric.rounds", "fabric.sched_slices", nullptr},
      {"fabric.worm_link_utilization", "fabric.flits_forwarded", "fabric.link_cycles", nullptr},
  };
  Named out = counts;
  for (const auto& r : kRatios) {
    const double* num = get(r.num);
    const double* den = get(r.den);
    const double* extra = r.den_extra ? get(r.den_extra) : nullptr;
    if (num && den && (r.den_extra == nullptr || extra))
      out.push_back({r.name, ratio(*num, *den + (extra ? *extra : 0.0))});
  }
  return out;
}

const std::vector<Workload>& workloads() {
  // Fixed run lengths: 4-6 s of host time per workload on a 4-vCPU x86 VM,
  // so they end inside the run's time budget (README.md "Workloads"). A
  // slot_sweep chunk is one round of all 16 points at `chunk` slots each.
  static const std::vector<Workload> kWorkloads = {
      {"switch16_sat", 50000, 40, 2, 1, build_switch16},
      {"torus8_uniform", 10000, 16, 2, 64, build_torus_uniform},
      {"torus8_hotquad", 16000, 16, 2, 64, build_torus_hotquad},
      {"banyan32_hotsenders", 6000, 40, 2, 80, build_banyan},
      {"slot_sweep", 125000, 10, 1, 16, build_slot_sweep},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace pmsb::perf
