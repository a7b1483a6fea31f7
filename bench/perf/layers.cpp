// Layer micro-suite (pmsb_perf --layers): each metric times calls into one
// layer's public functions in isolation and reports the host cost of one
// unit of that layer's work. Every repetition runs long enough (~10-60 ms)
// for steady_clock to resolve it; the suite reports the median and the
// quartiles over the repetitions. README.md maps each metric to the
// end-to-end metric and workload it should move.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perf.hpp"

#include "arch/admission.hpp"
#include "arch/shared_buffer.hpp"
#include "core/fast_switch.hpp"
#include "core/free_list.hpp"
#include "core/testbench.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "fabric/bridge.hpp"
#include "fabric/channel.hpp"
#include "fabric/fabric.hpp"
#include "fabric/scheduler.hpp"
#include "fabric/task.hpp"
#include "fabric/worm.hpp"
#include "net/topology.hpp"
#include "rtl/ctrl_pipeline.hpp"
#include "rtl/sram_bank.hpp"
#include "sim/engine.hpp"
#include "stats/hdr_histogram.hpp"
#include "traffic/spec.hpp"

namespace pmsb::perf {
namespace {

/// Results land here so the optimizer cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

/// Host ns that `fn` takes, divided by the units of work it reports.
template <typename Fn>
double per_unit_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  const double units = fn();
  return static_cast<double>(now_ns() - t0) / units;
}

TrafficSpec saturated() {
  TrafficSpec t;
  t.arrivals = ArrivalKind::kSaturated;
  t.load = 1.0;
  t.seed = 1;
  return t;
}

/// ns per port-cycle of a saturated n-port switch (sources and sinks
/// included, no scoreboard) under Engine::run.
template <typename SwitchT>
std::function<double()> switch_port_cycle(unsigned n, Cycle cycles,
                                          std::shared_ptr<const SwitchStats>* stats_out) {
  const SwitchConfig cfg = SwitchConfig::for_ports(n);
  auto tb = std::make_shared<Testbench<SwitchT, SwitchConfig>>(cfg, n, cfg.cell_format(),
                                                                saturated(), false);
  tb->run(2000);
  if (stats_out) *stats_out = std::shared_ptr<const SwitchStats>(tb, &tb->dut().stats());
  return [tb, n, cycles] {
    return per_unit_ns([&] {
      tb->run(cycles);
      return static_cast<double>(cycles) * n;
    });
  };
}

/// A minimal clocked component: the kernel's per-component dispatch cost.
class Counter final : public Component {
 public:
  void eval(Cycle t) override { staged_ = value_ + static_cast<std::uint64_t>(t & 1); }
  void commit(Cycle) override { value_ = staged_; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t staged_ = 0;
};

/// Scheduler slice: a task that only counts down its slices.
class CountdownTask final : public fabric::SchedTask {
 public:
  explicit CountdownTask(unsigned n) : left_(n) {}
  fabric::Advance advance() override {
    g_sink = g_sink + left_;
    return --left_ == 0 ? fabric::Advance::kFinished : fabric::Advance::kProgress;
  }
  bool can_advance() const override { return left_ > 0; }

 private:
  unsigned left_;
};

/// Two tasks that may only move on alternate turns, so every step of one
/// blocks it until the other moves: the scheduler's block/wake path.
class PingPongTask final : public fabric::SchedTask {
 public:
  PingPongTask(std::atomic<std::uint64_t>* turn, std::uint64_t me, std::uint64_t turns)
      : turn_(turn), me_(me), turns_(turns) {}
  fabric::Advance advance() override {
    const std::uint64_t t = turn_->load(std::memory_order_acquire);
    if (t >= turns_) return fabric::Advance::kFinished;
    if (t % 2 != me_) return fabric::Advance::kBlockedOnEmpty;
    turn_->store(t + 1, std::memory_order_seq_cst);
    return t + 1 >= turns_ ? fabric::Advance::kFinished : fabric::Advance::kProgress;
  }
  bool can_advance() const override {
    const std::uint64_t t = turn_->load(std::memory_order_seq_cst);
    return t >= turns_ || t % 2 == me_;
  }

 private:
  std::atomic<std::uint64_t>* turn_;
  std::uint64_t me_;
  std::uint64_t turns_;
};

fabric::FabricConfig torus8(unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = net::Topology{net::TopologyKind::kTorus2D, 8, 8};
  cfg.node = SwitchConfig::for_ports(4);
  cfg.link_pipe_stages = 8;
  cfg.load = 0.45;
  cfg.threads = threads;
  return cfg;
}

}  // namespace

std::vector<std::pair<std::string, Summary>> run_layers(unsigned reps, unsigned threads) {
  std::vector<std::pair<std::string, std::function<double()>>> suite;

  // --- rtl: one single-ported SRAM stage and the figure-5 control pipeline.
  auto bank = std::make_shared<SramBank>(512, 16);
  suite.push_back({"rtl.sram_access_ns", [bank] {
                     constexpr int kIters = 1 << 21;
                     std::uint64_t x = 1;
                     Word acc = 0;
                     return per_unit_ns([&] {
                       for (int i = 0; i < kIters; ++i) {
                         lcg(x);
                         bank->write((x >> 33) & 511, (x >> 17) & 0xFFFF);
                         bank->tick();
                         acc += bank->read((x >> 45) & 511);
                         bank->tick();
                       }
                       g_sink = g_sink + acc;
                       return 2.0 * kIters;
                     });
                   }});
  auto pipe = std::make_shared<CtrlPipeline>(32);
  suite.push_back({"rtl.ctrl_pipeline_cycle_ns", [pipe] {
                     constexpr int kCycles = 1 << 20;
                     std::uint64_t acc = 0;
                     return per_unit_ns([&] {
                       for (int i = 0; i < kCycles; ++i) {
                         StageCtrl c;
                         c.op = (i & 1) ? StageOp::kRead : StageOp::kWrite;
                         c.addr = static_cast<std::uint32_t>(i & 511);
                         c.in_link = static_cast<std::uint16_t>(i & 15);
                         c.out_link = static_cast<std::uint16_t>((i >> 4) & 15);
                         pipe->initiate(c);
                         acc += pipe->at(31).addr;
                         pipe->tick();
                       }
                       g_sink = g_sink + acc;
                       return static_cast<double>(kCycles);
                     });
                   }});

  // --- core: the free list, the cycle-accurate switch at three sizes, and
  // the behavioural FastSwitch.
  auto free_list = std::make_shared<FreeList>(512);
  auto held = std::make_shared<std::vector<std::uint32_t>>();
  for (int i = 0; i < 256; ++i) held->push_back(free_list->alloc(1)[0]);
  free_list->tick();
  suite.push_back({"core.free_list_op_ns", [free_list, held] {
                     constexpr int kIters = 1 << 21;
                     return per_unit_ns([&] {
                       for (int i = 0; i < kIters; ++i) {
                         const SegAddrs a = free_list->alloc(1);
                         free_list->release((*held)[i & 255]);
                         (*held)[i & 255] = a[0];
                         free_list->tick();
                       }
                       return 2.0 * kIters;
                     });
                   }});
  std::shared_ptr<const SwitchStats> p16_stats;
  suite.push_back({"core.switch_port_cycle_ns.p4",
                   switch_port_cycle<PipelinedSwitch>(4, 100000, nullptr)});
  suite.push_back({"core.switch_port_cycle_ns.p8",
                   switch_port_cycle<PipelinedSwitch>(8, 50000, nullptr)});
  suite.push_back({"core.switch_port_cycle_ns.p16",
                   switch_port_cycle<PipelinedSwitch>(16, 25000, &p16_stats)});
  suite.push_back({"core.fast_switch_port_cycle_ns.p4",
                   switch_port_cycle<FastSwitch>(4, 400000, nullptr)});

  // --- sim: kernel dispatch per component-cycle.
  auto counters = std::make_shared<std::vector<Counter>>(64);
  auto engine = std::make_shared<Engine>();
  for (Counter& c : *counters) engine->add(&c);
  suite.push_back({"sim.engine_component_cycle_ns", [engine, counters] {
                     constexpr Cycle kCycles = 200000;
                     return per_unit_ns([&] {
                       engine->run(kCycles);
                       g_sink = g_sink + counters->front().value();
                       return static_cast<double>(kCycles) * counters->size();
                     });
                   }});

  // --- fabric: link ring, port bridge relay, one wormhole router, the
  // work-stealing scheduler, and fabric construction.
  auto ring = std::make_shared<fabric::Channel>(8);
  auto ring_t = std::make_shared<Cycle>(0);
  suite.push_back({"fabric.ring_flit_ns", [ring, ring_t] {
                     constexpr Cycle kFlits = 1 << 24;
                     Word acc = 0;
                     return per_unit_ns([&] {
                       for (Cycle i = 0; i < kFlits; ++i, ++*ring_t) {
                         const Cycle t = *ring_t;
                         const Word data = static_cast<Word>(t) & 0xFFFF;
                         ring->write(t, Flit{true, (t & 7) == 0, data});
                         acc += ring->read(t).data;
                       }
                       g_sink = g_sink + acc;
                       return static_cast<double>(kFlits);
                     });
                   }});

  struct BridgeRig {
    net::Topology topo{net::TopologyKind::kTorus2D, 4, 4};
    fabric::CellCodec codec;
    fabric::Channel rx{8};
    WireLink link;
    fabric::Ejector ejector;
    std::unique_ptr<fabric::PortBridge> bridge;
    std::vector<Word> cell;
    Cycle t = 0;
  };
  auto br = std::make_shared<BridgeRig>();
  br->codec = fabric::CellCodec{SwitchConfig::for_ports(4).cell_format(), bits_for(16)};
  // A back-to-back stream of transit cells for node 2 entering node 0.
  br->cell = br->codec.build(net::kEast, /*dest_node=*/2, /*src_node=*/3, /*seq=*/1, 0);
  br->bridge = std::make_unique<fabric::PortBridge>(&br->topo, &br->codec, 0, net::kWest,
                                                    &br->rx, &br->link, nullptr, &br->ejector);
  suite.push_back({"fabric.bridge_cell_ns", [br] {
                     constexpr Cycle kCycles = 1 << 22;
                     const std::uint64_t before = br->bridge->relayed();
                     const auto len = static_cast<Cycle>(br->cell.size());
                     return per_unit_ns([&] {
                       for (Cycle i = 0; i < kCycles; ++i, ++br->t) {
                         const auto k = static_cast<std::size_t>(br->t % len);
                         br->rx.write(br->t, Flit{true, k == 0, br->cell[k]});
                         br->bridge->eval(br->t);
                         br->bridge->commit(br->t);
                         br->link.tick();
                       }
                       return static_cast<double>(br->bridge->relayed() - before);
                     });
                   }});

  struct WormRig {
    net::Topology topo{net::TopologyKind::kBanyan, 2, 1};
    std::unique_ptr<DestPattern> dests;
    std::unique_ptr<fabric::WormRouter> router;
    Engine engine;
    std::uint64_t flits() const {
      std::uint64_t f = 0;
      for (unsigned p = 0; p < 2; ++p) f += router->sink_stats(p).flits;
      return f;
    }
  };
  auto wr = std::make_shared<WormRig>();
  {
    Rng drng(1);
    wr->dests = traffic::GeneratorSpec::parse("uniform").make_dest(2, drng);
    fabric::WormParams wp;
    wp.lanes = 4;
    wp.lane_depth = 4;
    wp.message_flits = 8;
    wp.messages_per_cycle = 0.8 / 8;
    wr->router = std::make_unique<fabric::WormRouter>(&wr->topo, 0, wp, wr->dests.get());
    for (unsigned e = 0; e < 2; ++e) {
      const auto [v, q] = wr->topo.ingress_of(e);
      (void)v;
      wr->router->add_source(q, e, Rng(e + 1));
    }
    for (unsigned p = 0; p < 2; ++p) wr->router->add_sink(p, wr->topo.egress_endpoint(0, p));
    wr->engine.add(wr->router.get());
    wr->engine.run(2000);
  }
  suite.push_back({"fabric.worm_flit_ns", [wr] {
                     const std::uint64_t before = wr->flits();
                     return per_unit_ns([&] {
                       wr->engine.run(150000);
                       return static_cast<double>(wr->flits() - before);
                     });
                   }});

  auto one_worker = std::make_shared<exp::ThreadPool>(1);
  suite.push_back({"fabric.sched_slice_ns", [one_worker] {
                     constexpr unsigned kTasks = 8, kSlices = 30000;
                     // The same slices called directly, without the scheduler.
                     std::vector<std::unique_ptr<CountdownTask>> direct;
                     for (unsigned i = 0; i < kTasks; ++i)
                       direct.push_back(std::make_unique<CountdownTask>(kSlices));
                     const double direct_ns = per_unit_ns([&] {
                       for (auto& task : direct)
                         while (task->advance() != fabric::Advance::kFinished) {
                         }
                       return 1.0;
                     });
                     std::vector<std::unique_ptr<CountdownTask>> tasks;
                     std::vector<fabric::SchedTask*> ptrs;
                     for (unsigned i = 0; i < kTasks; ++i) {
                       tasks.push_back(std::make_unique<CountdownTask>(kSlices));
                       ptrs.push_back(tasks.back().get());
                     }
                     fabric::Scheduler sched(1);
                     const double sched_ns = per_unit_ns([&] {
                       sched.run(*one_worker, ptrs, std::vector<std::vector<unsigned>>(kTasks),
                                 std::vector<unsigned>(kTasks, 0));
                       return 1.0;
                     });
                     return (sched_ns - direct_ns) / (kTasks * kSlices);
                   }});
  const unsigned pp_workers = threads >= 2 ? 2 : 1;
  auto pp_pool = std::make_shared<exp::ThreadPool>(pp_workers);
  suite.push_back({"fabric.sched_wake_ns", [pp_pool, pp_workers] {
                     constexpr std::uint64_t kTurns = 200000;
                     std::atomic<std::uint64_t> turn{0};
                     PingPongTask a(&turn, 0, kTurns), b(&turn, 1, kTurns);
                     std::vector<fabric::SchedTask*> ptrs{&a, &b};
                     fabric::Scheduler sched(pp_workers);
                     return per_unit_ns([&] {
                       sched.run(*pp_pool, ptrs, {{1}, {0}}, {0, pp_workers - 1});
                       return static_cast<double>(kTurns);
                     });
                   }});
  suite.push_back({"fabric.build_us_per_node", [threads] {
                     constexpr int kBuilds = 20;
                     const fabric::FabricConfig cfg = torus8(threads);
                     double ns = 0;
                     for (int i = 0; i < kBuilds; ++i) {
                       std::unique_ptr<fabric::Fabric> fab;  // Destroyed outside the timing.
                       ns += per_unit_ns([&] {
                         fab = fabric::Fabric::build(cfg.topo, cfg);
                         return 1.0;
                       });
                     }
                     return ns / (1000.0 * kBuilds * cfg.topo.nodes());
                   }});

  // --- stats: one latency sample into the HDR histogram.
  auto hist = std::make_shared<HdrHistogram>();
  suite.push_back({"stats.hdr_record_ns", [hist] {
                     constexpr int kIters = 1 << 23;
                     std::uint64_t x = 7;
                     return per_unit_ns([&] {
                       for (int i = 0; i < kIters; ++i) {
                         lcg(x);
                         // Mostly short latencies, with a rare long tail.
                         const std::uint64_t v = (x >> 40) % 4096 +
                                                 ((x & 0xFF) == 0 ? (x >> 20) % 100000 : 0);
                         hist->add(v);
                       }
                       g_sink = g_sink + hist->samples();
                       return static_cast<double>(kIters);
                     });
                   }});

  // --- arch / exp: one 16-port shared-buffer slot under each sweep
  // policy, and the sweep runner's cost per dispatched point.
  struct SlotRig {
    std::unique_ptr<UniformDest> dests = std::make_unique<UniformDest>(16);
    std::unique_ptr<SharedBufferModel> model;
    std::unique_ptr<SlotTraffic> traffic;
    Cycle slot = 0;
  };
  auto slot_rig = [](std::unique_ptr<AdmissionPolicy> policy) {
    auto rig = std::make_shared<SlotRig>();
    rig->model = std::make_unique<SharedBufferModel>(16, 64, std::move(policy));
    rig->traffic = std::make_unique<SlotTraffic>(16, 0.9, rig->dests.get(), Rng(7));
    return [rig] {
      constexpr Cycle kSlots = 100000;
      return per_unit_ns([&] {
        for (Cycle s = 0; s < kSlots; ++s, ++rig->slot)
          rig->model->step(rig->slot, rig->traffic->step());
        return static_cast<double>(kSlots);
      });
    };
  };
  suite.push_back(
      {"arch.shared_buffer_slot_ns", slot_rig(std::make_unique<StaticCapPolicy>(16))});
  suite.push_back(
      {"arch.dt_policy_slot_ns", slot_rig(std::make_unique<DynamicThresholdPolicy>(1.0))});
  auto runner = std::make_shared<exp::SweepRunner>(threads);
  suite.push_back({"exp.sweep_point_us", [runner] {
                     constexpr int kSweeps = 16;
                     const std::vector<std::uint64_t> items(1024, 3);
                     return per_unit_ns([&] {
                              for (int i = 0; i < kSweeps; ++i) {
                                const auto out = runner->map(items, [](std::uint64_t v) {
                                  return v * v;
                                });
                                g_sink = g_sink + out.back();
                              }
                              return static_cast<double>(kSweeps * items.size());
                            }) /
                            1000.0;
                   }});

  std::vector<std::pair<std::string, Summary>> out;
  for (auto& [name, once] : suite) {
    std::vector<double> xs;
    for (unsigned r = 0; r < reps; ++r) xs.push_back(once());
    out.push_back({name, summarize(std::move(xs))});
  }
  // A simulated ratio, not a time: cycles in which the saturated 16-port
  // switch had queued cells but started no read wave.
  const double stall = p16_stats->cycles == 0
                           ? 0.0
                           : static_cast<double>(p16_stats->read_stall_cycles) /
                                 static_cast<double>(p16_stats->cycles);
  out.push_back({"core.stalled_read_ratio", summarize({stall})});
  return out;
}

}  // namespace pmsb::perf
