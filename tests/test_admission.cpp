// Tests of the pluggable shared-buffer admission policies: the default
// static cap must be bit-identical to the pre-policy SharedBufferModel,
// Dynamic Threshold must track the free pool, the delay-driven policy must
// bound drain delay by construction, and every policy must conserve cells
// and attribute each drop -- plus the warmup-window throughput fix, pinned
// by a test the old whole-run accounting fails.

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "arch/admission.hpp"
#include "arch/shared_buffer.hpp"
#include "check/slot_invariants.hpp"

namespace pmsb {
namespace {

// The seed SharedBufferModel::step, reproduced verbatim (modulo the
// step/do_step rename): the reference the default policy must match
// bit-for-bit -- same decisions, same counters, same latency samples.
class SeedSharedBuffer : public SlotModel {
 public:
  SeedSharedBuffer(unsigned n, std::size_t capacity, std::size_t out_queue_limit = 0)
      : SlotModel(n), capacity_(capacity), out_queue_limit_(out_queue_limit), queues_(n) {}

  std::uint64_t resident() const override { return resident_; }
  const char* kind() const override { return "seed shared buffer"; }
  std::uint64_t peak_occupancy() const { return peak_; }

 protected:
  void do_step(Cycle slot,
               const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override {
    for (unsigned i = 0; i < n_; ++i) {
      if (!arrivals[i]) continue;
      on_injected();
      const unsigned dest = arrivals[i]->dest;
      if ((capacity_ != 0 && resident_ >= capacity_) ||
          (out_queue_limit_ != 0 && queues_[dest].size() >= out_queue_limit_)) {
        on_dropped();
        continue;
      }
      queues_[dest].push_back(SlotCell{slot, i, dest});
      ++resident_;
      peak_ = std::max(peak_, resident_);
    }
    for (unsigned o = 0; o < n_; ++o) {
      if (queues_[o].empty()) continue;
      on_delivered(slot, queues_[o].front());
      queues_[o].pop_front();
      --resident_;
    }
  }

 private:
  std::size_t capacity_;
  std::size_t out_queue_limit_;
  std::vector<std::deque<SlotCell>> queues_;
  std::uint64_t resident_ = 0;
  std::uint64_t peak_ = 0;
};

void expect_same_run(SlotModel& a, SlotModel& b) {
  EXPECT_EQ(a.counts().injected, b.counts().injected);
  EXPECT_EQ(a.counts().delivered, b.counts().delivered);
  EXPECT_EQ(a.counts().dropped, b.counts().dropped);
  EXPECT_EQ(a.resident(), b.resident());
  EXPECT_EQ(a.measured_counts().delivered, b.measured_counts().delivered);
  EXPECT_EQ(a.latency().samples(), b.latency().samples());
  EXPECT_EQ(a.latency().mean(), b.latency().mean());
  EXPECT_EQ(a.latency().p50(), b.latency().p50());
  EXPECT_EQ(a.latency().p99(), b.latency().p99());
  EXPECT_EQ(a.latency().max(), b.latency().max());
}

struct SeedWorkload {
  unsigned n;
  std::size_t capacity;
  std::size_t limit;
  double load;
  std::uint64_t seed;
};

// The E3 buffer-sizing point (16x16 shared, load 0.8) and the E9 equal-loss
// regime (tight pool near saturation), with and without a per-output cap.
const SeedWorkload kSeedWorkloads[] = {
    {16, 86, 0, 0.8, 101},   // E3: the found ~86-cell shared pool.
    {16, 64, 4, 0.8, 101},   // E3 geometry with a hogging cap engaged.
    {16, 51, 0, 0.95, 113},  // E9-style tight pool near saturation.
    {8, 24, 3, 0.9, 707},    // E3 cross-check geometry, capped.
};

TEST(AdmissionStaticCap, BitIdenticalToSeedModel) {
  for (const SeedWorkload& w : kSeedWorkloads) {
    SCOPED_TRACE(testing::Message() << "n=" << w.n << " cap=" << w.capacity
                                    << " limit=" << w.limit << " load=" << w.load);
    SeedSharedBuffer seed(w.n, w.capacity, w.limit);
    SharedBufferModel default_ctor(w.n, w.capacity, w.limit);
    SharedBufferModel policy_ctor(w.n, w.capacity,
                                  std::make_unique<StaticCapPolicy>(w.limit));
    const Cycle slots = 60000;
    for (SlotModel* m : {static_cast<SlotModel*>(&seed),
                         static_cast<SlotModel*>(&default_ctor),
                         static_cast<SlotModel*>(&policy_ctor)}) {
      UniformDest dests(w.n);
      SlotTraffic traffic(w.n, w.load, &dests, Rng(w.seed));
      run_slot_sim(*m, traffic, slots, slots / 5);
    }
    expect_same_run(seed, default_ctor);
    expect_same_run(seed, policy_ctor);
    EXPECT_EQ(seed.peak_occupancy(), default_ctor.peak_occupancy());
    // Static-cap rejections carry the historical output-cap attribution.
    EXPECT_EQ(default_ctor.drop_split().policy_reject, 0u);
    EXPECT_EQ(default_ctor.drop_split().total(), default_ctor.counts().dropped);
  }
}

TEST(AdmissionStaticCap, BitIdenticalOnBurstyTraffic) {
  // Same equivalence under the geometric on/off (bursty) arrival process.
  SeedSharedBuffer seed(16, 64, 6);
  SharedBufferModel model(16, 64, 6);
  const Cycle slots = 60000;
  for (SlotModel* m : {static_cast<SlotModel*>(&seed), static_cast<SlotModel*>(&model)}) {
    UniformDest dests(16);
    SlotTraffic traffic = SlotTraffic::bursty(16, 0.8, 12.0, &dests, Rng(55));
    run_slot_sim(*m, traffic, slots, slots / 5);
  }
  expect_same_run(seed, model);
}

TEST(AdmissionDynamicThreshold, CapTracksFreePoolUnderIncast) {
  // Choudhury-Hahne steady state for one dominant queue: Q settles where
  // Q = alpha (B - Q), i.e. Q = alpha B / (1 + alpha). The hot queue must
  // find that level for different alphas -- the cap follows the free pool,
  // not a constant.
  const unsigned n = 16;
  const std::size_t cap = 64;
  const Cycle slots = 20000;
  struct {
    double alpha;
    double expected_q;
  } cases[] = {{1.0, 32.0}, {0.5, 64.0 / 3.0}, {2.0, 128.0 / 3.0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "alpha=" << c.alpha);
    SharedBufferModel m(n, cap, std::make_unique<DynamicThresholdPolicy>(c.alpha));
    IncastDest dests(n, 0, 8);
    SlotTraffic traffic(n, 0.9, &dests, Rng(7));
    run_slot_sim(m, traffic, slots, slots / 5);
    // The hot queue oscillates by +-(arrivals per slot) around the fixed
    // point; allow that plus the integer-threshold quantization.
    EXPECT_NEAR(static_cast<double>(m.queue_len(0)), c.expected_q, 9.0);
    EXPECT_GT(m.drop_split().policy_reject, 0u);
    EXPECT_EQ(m.drop_split().output_cap, 0u);
    // At the settled point the DT relation binds: q ~ alpha x free pool.
    const auto& dt = static_cast<const DynamicThresholdPolicy&>(m.policy());
    EXPECT_NEAR(static_cast<double>(m.queue_len(0)), dt.threshold(m.resident()), 9.0);
  }
}

TEST(AdmissionQueueDelay, BoundsDrainDelay) {
  // The projected drain delay is >= the queue length (the measured drain
  // rate never exceeds one cell per slot), so an admitted cell can never
  // wait longer than max_delay slots: the p99 -- and the max -- are bounded
  // by construction, under the nastiest traffic we have.
  const unsigned n = 16;
  const Cycle max_delay = 12;
  SharedBufferModel m(n, 256, std::make_unique<QueueDelayPolicy>(max_delay));
  HotspotDest dests(n, 0, 0.6);
  SlotTraffic traffic = SlotTraffic::bursty_pareto(n, 0.9, 16.0, 1.5, &dests, Rng(23));
  const Cycle slots = 40000;
  run_slot_sim(m, traffic, slots, slots / 5);
  EXPECT_GT(m.counts().delivered, 0u);
  EXPECT_LE(m.latency().max(), static_cast<std::uint64_t>(max_delay));
  EXPECT_LE(m.latency().p99(), static_cast<std::uint64_t>(max_delay));
  EXPECT_GT(m.drop_split().policy_reject, 0u);  // The bound came from the policy.
}

TEST(AdmissionQueueDelay, IdleOutputStillAdmits) {
  // An empty queue admits regardless of drain-rate history (a never-used
  // output has no measured drain rate at all).
  SharedBufferModel m(4, 16, std::make_unique<QueueDelayPolicy>(4));
  std::vector<std::optional<SlotTraffic::Arrival>> arr(4);
  arr[0] = SlotTraffic::Arrival{2};
  m.step(0, arr);
  EXPECT_EQ(m.counts().dropped, 0u);
  EXPECT_EQ(m.counts().delivered, 1u);
}

TEST(AdmissionPolicies, ConservationAndAttributionHoldPerPolicy) {
  // injected == delivered + dropped + resident at every slot, for every
  // policy, with the drop split and per-output counters consistent --
  // audited by the same SharedBufferAuditor PMSB_CHECK=1 runs wire in.
  const unsigned n = 16;
  const Cycle slots = 30000;
  auto policies = [] {
    std::vector<std::unique_ptr<AdmissionPolicy>> p;
    p.push_back(std::make_unique<StaticCapPolicy>(4));
    p.push_back(std::make_unique<DynamicThresholdPolicy>(1.0));
    p.push_back(std::make_unique<QueueDelayPolicy>(8));
    return p;
  };
  for (auto& policy : policies()) {
    SCOPED_TRACE(policy->name());
    SharedBufferModel m(n, 48, std::move(policy));
    check::SharedBufferAuditor audit(m);
    IncastDest dests(n, 0, 10);
    SlotTraffic traffic(n, 0.85, &dests, Rng(31));
    m.set_warmup(slots / 5);
    for (Cycle s = 0; s < slots; ++s) {
      m.step(s, traffic.step());
      audit.after_step(s);
    }
    const FlowCounts& c = m.counts();
    EXPECT_EQ(c.injected, c.delivered + c.dropped + m.resident());
    EXPECT_GT(c.dropped, 0u);
    EXPECT_EQ(m.drop_split().total(), c.dropped);
    std::uint64_t per_output = 0;
    for (std::uint64_t d : m.drops_by_output()) per_output += d;
    EXPECT_EQ(per_output, c.dropped);
    // Incast drops concentrate on the sink output.
    EXPECT_GT(m.drops_by_output()[0], c.dropped / 2);
  }
}

TEST(AdmissionPolicies, PoolFullAttributedSeparately) {
  // An uncapped pool that overflows attributes every drop to pool_full;
  // the policy never rejected anything.
  SharedBufferModel m(4, 8, std::make_unique<StaticCapPolicy>(0));
  std::vector<std::optional<SlotTraffic::Arrival>> arr(4);
  for (unsigned i = 0; i < 4; ++i) arr[i] = SlotTraffic::Arrival{0};
  for (Cycle s = 0; s < 10; ++s) m.step(s, arr);
  EXPECT_GT(m.counts().dropped, 0u);
  EXPECT_EQ(m.drop_split().pool_full, m.counts().dropped);
  EXPECT_EQ(m.drop_split().output_cap, 0u);
  EXPECT_EQ(m.drop_split().policy_reject, 0u);
}

TEST(SlotModel, MeasuredThroughputExcludesWarmup) {
  // One input at load 1.0 through warmup, silence afterwards: every
  // delivery happens during warmup, so the measured (post-warmup)
  // throughput is exactly zero. The old whole-run accounting divided the
  // 100 warmup deliveries by all 200 slots and reported 0.5.
  SharedBufferModel m(1, 0);
  m.set_warmup(100);
  std::vector<std::optional<SlotTraffic::Arrival>> arrival(1), silence(1);
  arrival[0] = SlotTraffic::Arrival{0};
  for (Cycle s = 0; s < 100; ++s) m.step(s, arrival);
  for (Cycle s = 100; s < 200; ++s) m.step(s, silence);
  EXPECT_EQ(m.counts().delivered, 100u);  // Whole-run counter still totals.
  EXPECT_EQ(m.measured_counts().delivered, 0u);
  EXPECT_DOUBLE_EQ(measured_throughput(m, 200), 0.0);
}

TEST(SlotModel, MeasuredCountsWindowMatchesManualSnapshot) {
  // The internal warmup latch must agree with snapshotting counts() at the
  // warmup boundary by hand (the accounting run_uniform always did).
  SharedBufferModel latched(16, 48, 4);
  SharedBufferModel manual(16, 48, 4);
  const Cycle slots = 20000, warmup = 5000;
  FlowCounts at_warmup;
  {
    UniformDest dests(16);
    SlotTraffic traffic(16, 0.9, &dests, Rng(77));
    latched.set_warmup(warmup);
    for (Cycle s = 0; s < slots; ++s) latched.step(s, traffic.step());
  }
  {
    UniformDest dests(16);
    SlotTraffic traffic(16, 0.9, &dests, Rng(77));
    manual.set_warmup(warmup);
    for (Cycle s = 0; s < warmup; ++s) manual.step(s, traffic.step());
    at_warmup = manual.counts();
    for (Cycle s = warmup; s < slots; ++s) manual.step(s, traffic.step());
  }
  EXPECT_EQ(latched.measured_counts().injected, manual.counts().injected - at_warmup.injected);
  EXPECT_EQ(latched.measured_counts().delivered,
            manual.counts().delivered - at_warmup.delivered);
  EXPECT_EQ(latched.measured_counts().dropped, manual.counts().dropped - at_warmup.dropped);
  EXPECT_GT(latched.measured_counts().delivered, 0u);
}

TEST(ParetoTraffic, HitsTargetLoadAndIsHeavyTailed) {
  const unsigned n = 8;
  UniformDest dests(n);
  SlotTraffic traffic = SlotTraffic::bursty_pareto(n, 0.6, 16.0, 1.5, &dests, Rng(5));
  const Cycle slots = 200000;
  for (Cycle s = 0; s < slots; ++s) traffic.step();
  const double rate = static_cast<double>(traffic.arrivals_so_far()) /
                      (static_cast<double>(slots) * n);
  EXPECT_NEAR(rate, 0.6, 0.05);
}

TEST(ParetoTraffic, BurstsDwarfGeometricTail) {
  // Track the longest uninterrupted single-destination run on one input:
  // shape 1.5 bursts must reach far beyond the geometric model's tail at
  // the same mean.
  auto longest_run = [](SlotTraffic& t, Cycle slots) {
    std::uint64_t longest = 0, run = 0;
    bool prev = false;
    unsigned prev_dest = 0;
    for (Cycle s = 0; s < slots; ++s) {
      const auto& arr = t.step();
      if (arr[0] && (!prev || arr[0]->dest == prev_dest)) {
        ++run;
      } else {
        run = arr[0] ? 1 : 0;
      }
      if (arr[0]) prev_dest = arr[0]->dest;
      prev = arr[0].has_value();
      longest = std::max(longest, run);
    }
    return longest;
  };
  UniformDest dests(8);
  SlotTraffic pareto = SlotTraffic::bursty_pareto(8, 0.5, 8.0, 1.5, &dests, Rng(9));
  SlotTraffic geo = SlotTraffic::bursty(8, 0.5, 8.0, &dests, Rng(9));
  const Cycle slots = 300000;
  const std::uint64_t lp = longest_run(pareto, slots);
  const std::uint64_t lg = longest_run(geo, slots);
  EXPECT_GT(lp, 2 * lg);
}

}  // namespace
}  // namespace pmsb
