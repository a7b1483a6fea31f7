// Tests of the two-phase simulation kernel, including the quiescence
// contract (idle-cycle skipping) and mid-run metrics attachment.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/testbench.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/link_pipeline.hpp"
#include "sim/trace.hpp"
#include "sim/wire.hpp"

namespace pmsb {
namespace {

/// A counter whose next value depends on another counter's *committed*
/// state; two-phase semantics make the result order-independent.
class Chained : public Component {
 public:
  explicit Chained(const Chained* upstream) : upstream_(upstream) {}
  void eval(Cycle) override { next_ = upstream_ ? upstream_->value_ + 1 : value_ + 1; }
  void commit(Cycle) override { value_ = next_; }
  int value() const { return value_; }

 private:
  const Chained* upstream_;
  int value_ = 0;
  int next_ = 0;
};

TEST(Engine, TwoPhaseIsEvalOrderIndependent) {
  // a feeds b. Register both orders; the committed chain must behave the
  // same: b lags a by exactly one cycle.
  for (bool reversed : {false, true}) {
    Chained a(nullptr);
    Chained b(&a);
    Engine eng;
    if (reversed) {
      eng.add(&b);
      eng.add(&a);
    } else {
      eng.add(&a);
      eng.add(&b);
    }
    eng.run(10);
    EXPECT_EQ(a.value(), 10);
    EXPECT_EQ(b.value(), 10);  // b_t = a_{t-1} + 1 = t.
  }
}

TEST(Engine, RunReturnsCycleCount) {
  Engine eng;
  Chained a(nullptr);
  eng.add(&a);
  EXPECT_EQ(eng.run(5), 5);
  EXPECT_EQ(eng.run(3), 8);
  EXPECT_EQ(eng.now(), 8);
}

TEST(Engine, RunUntilFiresOnPredicate) {
  Engine eng;
  Chained a(nullptr);
  eng.add(&a);
  const bool fired = eng.run_until([&](Cycle) { return a.value() >= 7; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(a.value(), 7);
}

TEST(Engine, RunUntilTimesOut) {
  Engine eng;
  Chained a(nullptr);
  eng.add(&a);
  EXPECT_FALSE(eng.run_until([](Cycle) { return false; }, 50));
  EXPECT_EQ(eng.now(), 50);
}

TEST(EngineDeath, NullComponent) {
  Engine eng;
  EXPECT_DEATH(eng.add(nullptr), "null");
}

TEST(LinkPipeline, AddsExactlyStagesPlusOneCycles) {
  for (unsigned k : {1u, 2u, 5u}) {
    WireLink a, b;
    LinkPipeline pipe(&a, &b, k);
    Engine eng;
    eng.add(&pipe);
    // Drive a marker onto `a` for cycle 1.
    a.drive_next(0, Flit{true, true, 0x5A});
    Cycle seen_at = -1;
    for (Cycle c = 0; c < 20; ++c) {
      eng.step();
      if (b.now(eng.now()).valid && seen_at < 0) seen_at = eng.now();  // Wire cycle.
    }
    // On `a` during cycle 1; on `b` during cycle 1 + (k + 1).
    EXPECT_EQ(seen_at, 1 + static_cast<Cycle>(k) + 1) << "k = " << k;
  }
}

TEST(LinkPipeline, PreservesFlitContentAndGaps) {
  WireLink a, b;
  LinkPipeline pipe(&a, &b, 2);
  Engine eng;
  eng.add(&pipe);
  // Pattern: valid, gap, valid.
  std::vector<Flit> sent = {Flit{true, true, 1}, Flit{}, Flit{true, false, 2}};
  std::vector<Flit> got;
  for (Cycle c = 0; c < 12; ++c) {
    if (c < static_cast<Cycle>(sent.size()) && sent[c].valid) a.drive_next(c, sent[c]);
    eng.step();
    got.push_back(b.now(eng.now()));
  }
  // Shifted by 3 cycles, content identical (including the gap).
  EXPECT_EQ(got[3], sent[0]);
  EXPECT_EQ(got[4], Flit{});
  EXPECT_EQ(got[5], sent[2]);
}

// ---------------------------------------------------------------------------
// WireLink: two cycle-stamped slots, no clock edge.

TEST(WireLink, ValidExactlyOneCycleAfterDrive) {
  // Driven during t, the word is on the wire during t + 1 only; nothing
  // ticks the wire in between.
  for (const Cycle t : {Cycle{0}, Cycle{7}, Cycle{1000}}) {
    WireLink w;
    EXPECT_TRUE(w.idle(t));
    w.drive_next(t, Flit{true, false, 9});
    EXPECT_FALSE(w.now(t).valid) << t;
    EXPECT_FALSE(w.idle(t)) << t;  // Driven for t + 1.
    EXPECT_TRUE(w.now(t + 1).valid) << t;
    EXPECT_EQ(w.now(t + 1).data, 9u) << t;
    EXPECT_FALSE(w.idle(t + 1)) << t;  // Carries the word.
    EXPECT_FALSE(w.now(t + 2).valid) << t;
    EXPECT_TRUE(w.idle(t + 2)) << t;
    // The slot of t + 1 is reused by t + 3 and reads idle there.
    EXPECT_FALSE(w.now(t + 3).valid) << t;
    EXPECT_TRUE(w.idle(t + 3)) << t;
  }
}

TEST(WireLink, EveryCycleOfAStreamReadsItsOwnWord) {
  WireLink w;
  for (Cycle t = 0; t < 10; ++t) {
    w.drive_next(t, Flit{true, t == 0, static_cast<Word>(t)});
    EXPECT_EQ(w.now(t + 1).data, static_cast<Word>(t));
    if (t > 0) {
      EXPECT_EQ(w.now(t).data, static_cast<Word>(t - 1));
    }
  }
  EXPECT_FALSE(w.now(11).valid);
}

/// Records the cycles in which a wire carried a word; quiescent whenever
/// the wire is idle, so an engine may skip it.
class WireReader final : public Component {
 public:
  explicit WireReader(const WireLink* w) : w_(w) {}
  void eval(Cycle t) override {
    if (w_->now(t).valid) valid_at.push_back(t);
  }
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  bool is_quiescent(Cycle t) const override { return w_->idle(t); }

  std::vector<Cycle> valid_at;

 private:
  const WireLink* w_;
};

TEST(WireLink, StaleSlotsReadIdleAfterSkip) {
  // Two words leave a stale stamp in each slot (cycles 1 and 2). However far
  // the engine jumps -- an odd or an even span -- neither stamp matches a
  // later cycle of its parity, so the reader sees no word again.
  for (const Cycle span : {Cycle{5}, Cycle{6}}) {
    SCOPED_TRACE("span " + std::to_string(span));
    WireLink w;
    WireReader r(&w);
    Engine eng;
    eng.add(&r);
    w.drive_next(0, Flit{true, true, 1});
    eng.step();
    w.drive_next(1, Flit{true, false, 2});
    eng.step();
    eng.step();
    ASSERT_EQ(r.valid_at, (std::vector<Cycle>{1, 2}));
    ASSERT_TRUE(w.idle(eng.now()));
    eng.skip_to(eng.now() + span);
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(w.idle(eng.now())) << eng.now();
      eng.step();
    }
    EXPECT_EQ(r.valid_at, (std::vector<Cycle>{1, 2}));
  }
}

// ---------------------------------------------------------------------------
// Quiescence / idle-cycle skipping.

/// Fires a pulse every `period` cycles, idle in between -- the canonical
/// skippable component. Instruments how the engine actually drove it
/// (evals vs skipped cycles) so tests can prove skipping happened without
/// changing results.
class PulsedSource : public Component {
 public:
  explicit PulsedSource(Cycle period) : period_(period), gap_(period) {}

  void eval(Cycle t) override {
    ++evals_;
    last_eval_ = t;
    if (gap_ == 0) {
      ++pulses_;
      gap_ = period_;
    } else {
      --gap_;
    }
  }
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }

  bool is_quiescent(Cycle) const override { return gap_ > 0; }
  Cycle next_wake(Cycle t) const override { return t + gap_; }
  void skip(Cycle t, Cycle n) override {
    EXPECT_LE(n, gap_) << "skipped past our declared wake cycle";
    gap_ -= n;
    skipped_ += n;
    skip_calls_.emplace_back(t, n);
  }

  Cycle period_;
  Cycle gap_;
  std::uint64_t pulses_ = 0;
  std::uint64_t evals_ = 0;
  Cycle last_eval_ = -1;
  Cycle skipped_ = 0;
  std::vector<std::pair<Cycle, Cycle>> skip_calls_;
};

TEST(EngineIdleSkip, SkipsIdleGapsWithIdenticalResults) {
  PulsedSource stepped(100), skipped(100);
  Engine es, ek;
  es.add(&stepped);
  ek.add(&skipped);
  es.set_idle_skip(false);
  ek.set_idle_skip(true);
  es.run(1000);
  ek.run(1000);
  EXPECT_EQ(es.now(), ek.now());
  EXPECT_EQ(stepped.pulses_, skipped.pulses_);
  EXPECT_EQ(stepped.gap_, skipped.gap_);
  // The stepped engine evaluated every cycle; the skipping one did not.
  EXPECT_EQ(stepped.evals_, 1000u);
  EXPECT_LT(skipped.evals_, 500u);
  // Every cycle was either stepped or skip()-compensated -- never both.
  EXPECT_EQ(skipped.evals_ + static_cast<std::uint64_t>(skipped.skipped_), 1000u);
  EXPECT_FALSE(skipped.skip_calls_.empty());
  for (const auto& [t, n] : skipped.skip_calls_) {
    EXPECT_GE(t, 0);
    EXPECT_GT(n, 0);
  }
}

TEST(EngineIdleSkip, SkipStopsAtRunTarget) {
  // Wake (t + 500) far beyond the run target: the skip must clamp to the
  // target and leave the component's countdown mid-gap.
  PulsedSource p(500);
  Engine eng;
  eng.add(&p);
  eng.set_idle_skip(true);
  eng.run(123);
  EXPECT_EQ(eng.now(), 123);
  EXPECT_EQ(p.evals_ + static_cast<std::uint64_t>(p.skipped_), 123u);
  EXPECT_EQ(p.gap_, 500 - 123);
  EXPECT_EQ(p.pulses_, 0u);
}

TEST(EngineIdleSkip, CycleObserverPinsStepping) {
  struct CountingObserver : CycleObserver {
    std::uint64_t cycles = 0;
    void on_cycle_end(Cycle) override { ++cycles; }
  };
  PulsedSource p(100);
  CountingObserver obs;
  Engine eng;
  eng.add(&p);
  eng.add_cycle_observer(&obs);
  EXPECT_FALSE(eng.can_skip());
  eng.set_idle_skip(true);  // Requested, but the observer must win.
  eng.run(300);
  EXPECT_EQ(p.evals_, 300u);  // Every cycle stepped.
  EXPECT_EQ(p.skipped_, 0);
  EXPECT_EQ(obs.cycles, 300u);
}

// An observer that opts in (skips_ok) no longer pins the engine: it sees
// every stepped cycle through on_cycle_end and every jump through on_skip,
// and together they cover the run exactly once.
TEST(EngineIdleSkip, SkipsOkObserverSeesEveryCycleOrSkip) {
  struct SkipAwareObserver : CycleObserver {
    Cycle next = 0;  ///< First cycle not yet covered.
    std::uint64_t stepped = 0;
    std::uint64_t skips = 0;
    void on_cycle_end(Cycle t) override {
      EXPECT_EQ(t, next);
      next = t + 1;
      ++stepped;
    }
    bool skips_ok() const override { return true; }
    void on_skip(Cycle from, Cycle to) override {
      EXPECT_EQ(from, next);
      EXPECT_GT(to, from);
      next = to;
      ++skips;
    }
  };
  PulsedSource p(100);
  SkipAwareObserver obs;
  Engine eng;
  eng.add(&p);
  eng.add_cycle_observer(&obs);
  EXPECT_TRUE(eng.can_skip());
  eng.set_idle_skip(true);
  eng.run(1000);
  EXPECT_EQ(obs.next, 1000);
  EXPECT_EQ(obs.stepped, p.evals_);
  EXPECT_GT(obs.skips, 0u);
  EXPECT_EQ(p.evals_ + static_cast<std::uint64_t>(p.skipped_), 1000u);
}

TEST(EngineIdleSkip, RunUntilNeverSkips) {
  PulsedSource p(100);
  Engine eng;
  eng.add(&p);
  eng.set_idle_skip(true);
  EXPECT_FALSE(eng.run_until([](Cycle) { return false; }, 50));
  EXPECT_EQ(p.evals_, 50u);  // The predicate is checked per cycle: no skips.
  EXPECT_EQ(p.skipped_, 0);
}

TEST(EngineIdleSkip, SkipReplaysMetricSampleBoundaries) {
  // A fully quiescent run: one skip covers the whole window, so every
  // sample boundary inside it must be replayed at the stepped cadence.
  PulsedSource stepped(100000), skipped(100000);
  obs::MetricsRegistry ms, mk;
  ms.add_gauge("pulses", [&stepped] { return static_cast<double>(stepped.pulses_); });
  mk.add_gauge("pulses", [&skipped] { return static_cast<double>(skipped.pulses_); });
  Engine es, ek;
  es.add(&stepped);
  ek.add(&skipped);
  es.set_idle_skip(false);
  ek.set_idle_skip(true);
  es.set_metrics(&ms, 32);
  ek.set_metrics(&mk, 32);
  es.run(100);
  ek.run(100);
  EXPECT_LT(skipped.evals_, stepped.evals_);
  EXPECT_EQ(ms.samples_taken(), 3u);  // Cycles 31, 63, 95.
  EXPECT_EQ(mk.samples_taken(), 3u);
  EXPECT_EQ(ms.last_sample_cycle(), 95);
  EXPECT_EQ(mk.last_sample_cycle(), 95);
  const obs::GaugeStats* a = ms.find_gauge("pulses");
  const obs::GaugeStats* b = mk.find_gauge("pulses");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->samples, b->samples);
  EXPECT_DOUBLE_EQ(a->sum, b->sum);
  // Further runs keep the replayed countdown aligned: next sample at 127.
  es.run(30);
  ek.run(30);
  EXPECT_EQ(ms.last_sample_cycle(), 127);
  EXPECT_EQ(mk.last_sample_cycle(), 127);
}

// End-to-end: a low-load switch testbench gives bit-identical stats and
// delivery counts with skipping on vs off.
TEST(EngineIdleSkip, PipelinedTestbenchEquivalence) {
  const SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.02;
  spec.seed = 21;
  PipelinedTestbench stepped(cfg, cfg.n_ports, cfg.cell_format(), spec, true);
  PipelinedTestbench skipped(cfg, cfg.n_ports, cfg.cell_format(), spec, true);
  stepped.engine().set_idle_skip(false);
  skipped.engine().set_idle_skip(true);
  stepped.run(20000);
  skipped.run(20000);
  EXPECT_GT(stepped.delivered(), 0u);
  EXPECT_EQ(stepped.injected(), skipped.injected());
  EXPECT_EQ(stepped.delivered(), skipped.delivered());
  const SwitchStats& a = stepped.dut().stats();
  const SwitchStats& b = skipped.dut().stats();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.idle_cycles, b.idle_cycles);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.read_grants, b.read_grants);
  EXPECT_EQ(a.heads_seen, b.heads_seen);
  EXPECT_TRUE(stepped.scoreboard().ok());
  EXPECT_TRUE(skipped.scoreboard().ok());
}

// ---------------------------------------------------------------------------
// set_metrics mid-run (attach / detach / re-attach / period change).

TEST(EngineMetrics, MidRunAttachPreservesSamplingPhase) {
  Chained a(nullptr);
  obs::MetricsRegistry m;
  m.add_gauge("v", [&a] { return static_cast<double>(a.value()); });
  Engine eng;
  eng.add(&a);
  eng.run(7);
  // Attaching at now=7 with period 8 must keep samples on the cycle-7,15,23
  // grid (where cycle-count-after-step is a multiple of 8), not restart the
  // countdown at 8 from here.
  eng.set_metrics(&m, 8);
  eng.run(20);  // Cycles 7..26.
  EXPECT_EQ(m.samples_taken(), 3u);
  EXPECT_EQ(m.last_sample_cycle(), 23);
  const obs::GaugeStats* g = m.find_gauge("v");
  ASSERT_NE(g, nullptr);
  // Gauge pulled after the commit of each sampled cycle: values 8, 16, 24.
  EXPECT_DOUBLE_EQ(g->min, 8.0);
  EXPECT_DOUBLE_EQ(g->last, 24.0);
  EXPECT_DOUBLE_EQ(g->sum, 8.0 + 16.0 + 24.0);
}

TEST(EngineMetrics, DetachStopsSamplingAndReattachReArms) {
  Chained a(nullptr);
  obs::MetricsRegistry m;
  m.add_gauge("v", [&a] { return static_cast<double>(a.value()); });
  Engine eng;
  eng.add(&a);
  eng.set_metrics(&m, 8);
  eng.run(20);  // Samples at cycles 7 and 15.
  EXPECT_EQ(m.samples_taken(), 2u);
  EXPECT_EQ(m.last_sample_cycle(), 15);

  eng.set_metrics(nullptr);
  eng.run(9);  // now = 29; the cycle-23 boundary passes unsampled.
  EXPECT_EQ(m.samples_taken(), 2u);

  eng.set_metrics(&m, 8);  // Re-arm onto the grid: next sample at cycle 31.
  eng.run(5);              // Cycles 29..33.
  EXPECT_EQ(m.samples_taken(), 3u);
  EXPECT_EQ(m.last_sample_cycle(), 31);
  EXPECT_DOUBLE_EQ(m.find_gauge("v")->last, 32.0);
}

TEST(EngineMetrics, PeriodChangeTakesEffectOnNewGrid) {
  Chained a(nullptr);
  obs::MetricsRegistry m;
  m.add_gauge("v", [&a] { return static_cast<double>(a.value()); });
  Engine eng;
  eng.add(&a);
  eng.set_metrics(&m, 4);
  eng.run(10);  // Samples at cycles 3 and 7.
  EXPECT_EQ(m.samples_taken(), 2u);
  EXPECT_EQ(m.last_sample_cycle(), 7);

  eng.set_metrics(&m, 3);  // At now=10: next multiple-of-3 boundary is cycle 11.
  eng.run(6);              // Cycles 10..15 -> samples at 11 and 14.
  EXPECT_EQ(m.samples_taken(), 4u);
  EXPECT_EQ(m.last_sample_cycle(), 14);
  EXPECT_DOUBLE_EQ(m.find_gauge("v")->last, 15.0);
}

TEST(Tracer, WritesEventsWhenEnabled) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  Tracer tr(f);
  obs::TraceRecord r;
  r.t = 42;
  r.input = 3;
  tr.record(r);  // Directly...
  obs::TraceBuffer buf(4);
  tr.attach_live(buf);
  r.t = 43;
  buf.push(r);    // ...as the buffer's live drain...
  tr.drain(buf);  // ...and replaying what the buffer retained.
  std::rewind(f);
  std::string all(512, '\0');
  all.resize(std::fread(all.data(), 1, all.size(), f));
  const std::string body = obs::format(r);
  EXPECT_EQ(all, "[    42] " + body + "\n[    43] " + body + "\n[    43] " + body + "\n");
  std::fclose(f);
}

}  // namespace
}  // namespace pmsb
