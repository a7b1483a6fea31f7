// Tests of the verification subsystem itself (src/check/): the invariant
// checker on clean and deliberately broken switches, the differential
// harness, the failure minimizer, and .repro.json round-tripping -- the
// full detect -> minimize -> write -> replay loop the fuzzer automates.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/differential.hpp"
#include "check/invariants.hpp"
#include "check/minimize.hpp"
#include "check/repro.hpp"
#include "core/testbench.hpp"

namespace pmsb {
namespace {

// ---------------------------------------------------------------------------
// InvariantChecker on live switches
// ---------------------------------------------------------------------------

TEST(InvariantChecker, CleanPipelinedRunHasNoViolations) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 8;
  cfg.capacity_segments = 32;
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 7;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  check::InvariantChecker& checker = tb.attach_checker();
  tb.run(4000);
  EXPECT_TRUE(tb.drain());
  EXPECT_TRUE(checker.ok()) << checker.violations().front().message;
  EXPECT_TRUE(tb.scoreboard().ok());
  EXPECT_GT(tb.delivered(), 0u);
}

TEST(InvariantChecker, CleanMultiSegmentRunHasNoViolations) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 16;  // m = 2 segments per cell.
  cfg.capacity_segments = 32;
  TrafficSpec spec;
  spec.load = 0.9;
  spec.pattern = PatternKind::kHotspot;
  spec.seed = 11;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  check::InvariantChecker& checker = tb.attach_checker();
  tb.run(4000);
  tb.drain();
  EXPECT_TRUE(checker.ok()) << checker.violations().front().message;
}

TEST(InvariantChecker, CleanDualRunHasNoViolations) {
  DualSwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.capacity_segments_per_group = 16;
  TrafficSpec spec;
  spec.load = 0.9;
  spec.seed = 3;
  Testbench<DualPipelinedSwitch, DualSwitchConfig> tb(cfg, cfg.n_ports, cfg.cell_format(),
                                                      spec);
  check::InvariantChecker& checker = tb.attach_checker();
  tb.run(4000);
  tb.drain();
  EXPECT_TRUE(checker.ok()) << checker.violations().front().message;
  EXPECT_TRUE(tb.scoreboard().ok());
}

// Satellite S1: the paper's write-window guarantee implies kNoSlot can never
// fire for single-segment cells (reads occupy at most n of the 2n window
// slots, so the round-robin write arbiter always finds a slot before the
// deadline). Saturate a single-segment switch and assert the counter stays
// zero -- the checker turns any such drop into a violation as well.
TEST(InvariantChecker, SingleSegmentNeverDropsForSlotStarvation) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 8;
  cfg.capacity_segments = 8;  // Tiny buffer: plenty of kNoAddress drops.
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.pattern = PatternKind::kHotspot;
  spec.hot_fraction = 0.9;
  spec.seed = 13;
  spec.load = 1.0;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  check::InvariantChecker& checker = tb.attach_checker();
  tb.run(6000);
  tb.drain();
  EXPECT_TRUE(checker.ok()) << checker.violations().front().message;
  EXPECT_EQ(tb.dut().stats().dropped_no_slot, 0u);
  EXPECT_GT(tb.dut().stats().dropped(), 0u);  // The buffer did overflow.
}

TEST(InvariantChecker, FaultedArbiterIsCaught) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 8;
  cfg.capacity_segments = 64;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 5;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  FaultPlan fault;
  fault.suppress_write_grant_period = 2;  // Drop every 2nd eligible write grant.
  tb.dut().set_fault_plan(fault);
  check::InvariantChecker& checker = tb.attach_checker();
  obs::MetricsRegistry metrics;
  checker.register_metrics(metrics);
  tb.run(2000);
  tb.drain();
  EXPECT_FALSE(checker.ok());
  // Starved single-segment cells die as kNoSlot, which the checker flags.
  EXPECT_GT(checker.count(check::Invariant::kDropReason), 0u);
  const obs::Counter* c = metrics.find_counter("check.violations.drop_reason");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), checker.count(check::Invariant::kDropReason));
  EXPECT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations().front().message.find("write-window"), std::string::npos);
}

TEST(InvariantChecker, ViolationsLandInTraceBuffer) {
  SwitchConfig cfg;
  cfg.n_ports = 2;
  cfg.cell_words = 4;
  cfg.capacity_segments = 16;
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 9;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec);
  FaultPlan fault;
  fault.suppress_write_grant_period = 2;
  tb.dut().set_fault_plan(fault);
  check::InvariantChecker& checker = tb.attach_checker();
  obs::TraceBuffer trace(256);
  checker.set_trace(&trace);
  tb.run(1500);
  tb.drain();
  ASSERT_FALSE(checker.ok());
  unsigned violation_records = 0;
  trace.for_each([&](const obs::TraceRecord& r) {
    if (r.event == obs::TraceEvent::kViolation) ++violation_records;
  });
  EXPECT_GT(violation_records, 0u);
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

TEST(Differential, CleanSpecPasses) {
  check::FuzzSpec spec;
  spec.n = 4;
  spec.capacity_cells = 16;
  spec.load = 0.7;
  spec.slots = 80;
  spec.seed = 42;
  const check::RunOutcome out = check::run(spec);
  EXPECT_TRUE(out.ok) << out.issues.front();
  ASSERT_EQ(out.summaries.size(), 5u);
  EXPECT_GT(out.summaries[0].injected, 0u);
  // All models saw the identical schedule.
  for (const auto& s : out.summaries) {
    EXPECT_EQ(s.injected, out.summaries[0].injected) << s.model;
  }
  // The behavioural fast model rides in every differential run.
  bool has_fast = false;
  for (const auto& s : out.summaries) has_fast |= s.model == "fast";
  EXPECT_TRUE(has_fast);
}

// The fast model's delivery semantics are pinned against the cycle-accurate
// switch by the harness itself; this spot-checks that a drop-free clean run
// delivers everything through the fast model too.
TEST(Differential, FastModelMatchesOnDropFreeRun) {
  check::FuzzSpec spec;
  spec.n = 4;
  spec.capacity_cells = 64;  // Ample: no drops anywhere.
  spec.load = 0.4;
  spec.slots = 100;
  spec.seed = 5;
  const check::RunOutcome out = check::run(spec);
  EXPECT_TRUE(out.ok) << out.issues.front();
  for (const auto& s : out.summaries) {
    if (s.model != "fast") continue;
    EXPECT_GT(s.injected, 0u);
    EXPECT_EQ(s.delivered, s.injected);
    EXPECT_EQ(s.dropped, 0u);
  }
}

TEST(Differential, MultiSegmentAndHalfQuantumSpecPasses) {
  check::FuzzSpec spec;
  spec.n = 4;
  spec.segments = 2;
  spec.capacity_cells = 8;
  spec.load = 0.9;
  spec.pattern = 2;  // Hotspot: drops on at least some models.
  spec.slots = 60;
  spec.seed = 17;
  const check::RunOutcome out = check::run(spec);
  EXPECT_TRUE(out.ok) << out.issues.front();
}

// Switches wider than 32 ports have more than 64 pipeline stages: the
// active-stage walk must not assume its stage set fits one machine word.
TEST(Differential, WideSwitchesBeyondSixtyFourStagesPass) {
  for (unsigned n : {33u, 40u}) {
    check::FuzzSpec spec;
    spec.n = n;  // S = 66 and 80.
    spec.capacity_cells = 24;
    spec.load = 0.6;
    spec.slots = 40;
    spec.seed = 1000 + n;
    const check::RunOutcome out = check::run(spec);
    EXPECT_TRUE(out.ok) << "n=" << n << ": " << out.issues.front();
    ASSERT_FALSE(out.summaries.empty());
    EXPECT_GT(out.summaries[0].delivered, 0u) << n;
  }
}

TEST(Differential, InjectedFaultFails) {
  check::FuzzSpec spec;
  spec.n = 4;
  spec.capacity_cells = 32;
  spec.load = 0.9;
  spec.slots = 80;
  spec.seed = 23;
  spec.fault_suppress_write_period = 2;
  const check::RunOutcome out = check::run(spec);
  EXPECT_FALSE(out.ok);
  ASSERT_FALSE(out.issues.empty());
  EXPECT_EQ(check::issue_category(out.issues.front()), "invariant");
}

// ---------------------------------------------------------------------------
// Minimizer + repro round trip: the acceptance-criteria demo. An injected
// arbiter bug is caught, shrunk, serialized, parsed back, and replayed to
// the same failure category.
// ---------------------------------------------------------------------------

TEST(Minimizer, ShrinksAndReplaysInjectedBug) {
  check::FuzzSpec spec;
  spec.n = 4;
  spec.capacity_cells = 16;
  spec.load = 0.8;
  spec.slots = 60;
  spec.seed = 29;
  spec.fault_suppress_write_period = 3;

  const auto cells = check::generate_cells(spec);
  const check::RunOutcome out = check::run(spec, cells);
  ASSERT_FALSE(out.ok);

  check::MinimizeStats mstats;
  const check::Repro repro = check::minimize(spec, cells, out, 200, &mstats);
  EXPECT_LT(repro.cells.size(), cells.size());  // It actually shrank.
  EXPECT_EQ(repro.category, check::issue_category(out.issues.front()));

  // Serialize -> parse -> identical spec and schedule.
  const std::string doc = check::to_json(repro);
  check::Repro parsed;
  std::string err;
  ASSERT_TRUE(check::parse_repro(doc, &parsed, &err)) << err;
  EXPECT_EQ(parsed.spec.n, repro.spec.n);
  EXPECT_EQ(parsed.spec.capacity_cells, repro.spec.capacity_cells);
  EXPECT_EQ(parsed.spec.fault_suppress_write_period, 3u);
  ASSERT_EQ(parsed.cells.size(), repro.cells.size());
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    EXPECT_EQ(parsed.cells[i].input, repro.cells[i].input);
    EXPECT_EQ(parsed.cells[i].slot, repro.cells[i].slot);
    EXPECT_EQ(parsed.cells[i].dest, repro.cells[i].dest);
  }

  // Replay reproduces the same failure category.
  const check::ReplayResult res = check::replay(parsed);
  EXPECT_TRUE(res.reproduced);
  EXPECT_FALSE(res.outcome.ok);
  EXPECT_EQ(check::issue_category(res.outcome.issues.front()), repro.category);
}

TEST(Repro, FileRoundTrip) {
  check::Repro r;
  r.spec.n = 2;
  r.spec.slots = 4;
  r.category = "diff";
  r.first_issue = "diff: something with \"quotes\" and\nnewlines";
  r.cells = {{0, 0, 1}, {1, 0, 0}, {0, 2, 0}};
  const std::string path = testing::TempDir() + "pmsb_roundtrip.repro.json";
  std::string err;
  ASSERT_TRUE(check::write_repro_file(r, path, &err)) << err;
  check::Repro back;
  ASSERT_TRUE(check::read_repro_file(path, &back, &err)) << err;
  EXPECT_EQ(back.category, "diff");
  EXPECT_EQ(back.first_issue, r.first_issue);
  ASSERT_EQ(back.cells.size(), 3u);
  EXPECT_EQ(back.cells[2].slot, 2u);
  std::remove(path.c_str());
}

TEST(Repro, RejectsMalformedDocuments) {
  check::Repro r;
  std::string err;
  EXPECT_FALSE(check::parse_repro("", &r, &err));
  EXPECT_FALSE(check::parse_repro("{", &r, &err));
  EXPECT_FALSE(check::parse_repro("[1,2,3]", &r, &err));
  EXPECT_FALSE(check::parse_repro(R"({"pmsb_repro":2,"spec":{},"cells":[]})", &r, &err));
  // Cells out of range for the spec.
  EXPECT_FALSE(check::parse_repro(
      R"({"pmsb_repro":1,"spec":{"n":2,"segments":1,"capacity_cells":4,)"
      R"("out_queue_limit":0,"cut_through":true,"pattern":0,"load":0.5,)"
      R"("hot_fraction":0.5,"slots":4,"seed":1,"fault_suppress_write_period":0},)"
      R"("cells":[[5,0,0]]})",
      &r, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite S2: config validation
// ---------------------------------------------------------------------------

TEST(ConfigValidation, RejectsHalfQuantumCellsWithPointerToDual) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 4;  // n words = half quantum: needs DualPipelinedSwitch.
  cfg.capacity_segments = 16;
  try {
    cfg.validate();
    FAIL() << "half-quantum cell_words must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DualPipelinedSwitch"), std::string::npos);
  }
}

TEST(ConfigValidation, RejectsNonDividingCellWords) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 12;  // Neither multiple nor divisor of 2n = 8.
  cfg.capacity_segments = 16;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsOutQueueLimitBeyondCapacity) {
  SwitchConfig cfg;
  cfg.n_ports = 4;
  cfg.cell_words = 8;
  cfg.capacity_segments = 16;  // 16 cells.
  cfg.out_queue_limit = 17;
  try {
    cfg.validate();
    FAIL() << "out_queue_limit > capacity_cells must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out_queue_limit"), std::string::npos);
  }
  cfg.out_queue_limit = 16;  // Exactly the capacity: legal.
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace pmsb
