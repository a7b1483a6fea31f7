// Tests for the observability layer: MetricsRegistry (src/obs/metrics.hpp),
// TraceBuffer (src/obs/trace_buffer.hpp), JsonWriter
// (src/obs/json_writer.hpp), the Tracer drain (src/sim/trace.hpp), engine
// sampling, and the warmup-windowed measurement of bench_util's run_uniform.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>

#include "../bench/bench_util.hpp"
#include "core/event_hub.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace pmsb {
namespace {

// ---- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, CounterCreateOrGetIsStable) {
  obs::MetricsRegistry m;
  obs::Counter* a = m.counter("switch.wave_initiations");
  ASSERT_NE(a, nullptr);
  obs::Counter* b = m.counter("switch.wave_initiations");
  EXPECT_EQ(a, b);  // Same name -> same counter object.
  a->inc();
  a->inc(3);
  EXPECT_EQ(b->value(), 4u);

  obs::Counter* other = m.counter("switch.drops");
  EXPECT_NE(other, a);
  EXPECT_EQ(other->value(), 0u);
  EXPECT_EQ(m.counters().size(), 2u);
}

TEST(MetricsRegistry, GaugeSamplingAccumulatesStats) {
  obs::MetricsRegistry m;
  double level = 2.0;
  m.add_gauge("occ", [&] { return level; });
  m.sample(10);
  level = 8.0;
  m.sample(20);
  level = 5.0;
  m.sample(30);

  const obs::GaugeStats* g = m.find_gauge("occ");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->samples, 3u);
  EXPECT_DOUBLE_EQ(g->last, 5.0);
  EXPECT_DOUBLE_EQ(g->min, 2.0);
  EXPECT_DOUBLE_EQ(g->max, 8.0);
  EXPECT_DOUBLE_EQ(g->mean(), 5.0);
  EXPECT_EQ(m.samples_taken(), 3u);
  EXPECT_EQ(m.last_sample_cycle(), 30);
}

TEST(MetricsRegistry, ResetClearsValuesButKeepsRegistrations) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.counter("n");
  c->inc(42);
  m.add_gauge("g", [] { return 1.0; });
  HdrHistogram* h = m.hdr_histogram("h");
  ASSERT_NE(h, nullptr);
  h->add(3);
  m.sample(5);

  m.reset();
  EXPECT_EQ(c->value(), 0u);  // Cached pointer still valid, value zeroed.
  EXPECT_EQ(h->samples(), 0u);
  EXPECT_EQ(m.find_gauge("g")->samples, 0u);
  EXPECT_EQ(m.samples_taken(), 0u);
  c->inc();  // Still usable after reset.
  EXPECT_EQ(m.find_counter("n")->value(), 1u);
}

TEST(MetricsRegistry, HdrHistogramCreateOrGet) {
  obs::MetricsRegistry m;
  HdrHistogram* a = m.hdr_histogram("flight.total");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(m.hdr_histogram("flight.total"), a);
  a->add(1000);
  EXPECT_EQ(m.find_hdr_histogram("flight.total")->samples(), 1u);
  EXPECT_EQ(m.find_hdr_histogram("absent"), nullptr);
  EXPECT_EQ(m.hdr_histograms().size(), 1u);
}

TEST(MetricsRegistry, SampleHooksFireAfterGaugeUpdate) {
  obs::MetricsRegistry m;
  double level = 1.0;
  m.add_gauge("g", [&] { return level; });
  std::vector<double> seen;
  const std::uint64_t id = m.add_sample_hook(
      [&](Cycle) { seen.push_back(m.gauge_last(0)); });
  ASSERT_NE(id, 0u);
  m.sample(10);
  level = 4.0;
  m.sample(20);
  // Hooks run after the gauges are pulled, so they see this sample's values.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 4.0);

  m.remove_sample_hook(id);
  m.sample(30);
  EXPECT_EQ(seen.size(), 2u);  // Unhooked: no further callbacks.
}

TEST(Engine, SamplesMetricsOnPeriod) {
  Engine eng;
  obs::MetricsRegistry m;
  eng.set_metrics(&m, /*period=*/4);
  for (int i = 0; i < 10; ++i) eng.step();
  // Samples at end of cycles 3 and 7 (now_ becomes 4 and 8).
  EXPECT_EQ(m.samples_taken(), 2u);
  eng.set_metrics(nullptr);
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_EQ(m.samples_taken(), 2u);  // Detached: no further samples.
}

// ---- TimeSeriesSampler -----------------------------------------------------

TEST(TimeSeriesSampler, RecordsCounterDeltasAndGaugeValues) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.counter("sw.cells");
  double occ = 3.0;
  m.add_gauge("buf.occ", [&] { return occ; });
  obs::TimeSeriesSampler ts(&m, /*capacity=*/8);

  c->inc(5);
  m.sample(100);
  c->inc(2);
  occ = 7.0;
  m.sample(200);

  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.at(0).t, 100);
  EXPECT_EQ(ts.at(0).counter_deltas[0], 5u);  // Absolute at first snapshot.
  EXPECT_DOUBLE_EQ(ts.at(0).gauges[0], 3.0);
  EXPECT_EQ(ts.at(1).t, 200);
  EXPECT_EQ(ts.at(1).counter_deltas[0], 2u);  // Delta since the previous row.
  EXPECT_DOUBLE_EQ(ts.at(1).gauges[0], 7.0);

  const obs::TimeSeriesSampler::Series s = ts.series();
  ASSERT_EQ(s.counter_columns.size(), 1u);
  EXPECT_EQ(s.counter_columns[0], "sw.cells");
  EXPECT_EQ(s.gauge_columns[0], "buf.occ");
  EXPECT_EQ(s.rows.size(), 2u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(TimeSeriesSampler, RingWrapKeepsNewestRows) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.counter("n");
  obs::TimeSeriesSampler ts(&m, /*capacity=*/3);
  for (Cycle t = 1; t <= 7; ++t) {
    c->inc();
    m.sample(t * 10);
  }
  EXPECT_EQ(ts.total(), 7u);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.dropped(), 4u);
  // Oldest retained is snapshot #5; deltas survive the wrap (1 inc per row).
  EXPECT_EQ(ts.at(0).t, 50);
  EXPECT_EQ(ts.at(2).t, 70);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(ts.at(i).counter_deltas[0], 1u);
  EXPECT_EQ(ts.series().dropped, 4u);
}

TEST(TimeSeriesSampler, DisabledRegistryStaysEmpty) {
  obs::TimeSeriesSampler null_ts(nullptr, 4);  // No registry: inert.
  EXPECT_EQ(null_ts.size(), 0u);
}

TEST(TimeSeriesSampler, ColumnsRegisteredMidRunPadEarlierRows) {
  obs::MetricsRegistry m;
  obs::Counter* a = m.counter("x.a");
  obs::TimeSeriesSampler ts(&m, 8);
  a->inc(3);
  m.sample(10);
  obs::Counter* b = m.counter("x.b");  // Registered after the first row.
  b->inc(9);
  m.sample(20);
  const obs::TimeSeriesSampler::Series s = ts.series();
  ASSERT_EQ(s.counter_columns.size(), 2u);
  ASSERT_EQ(s.rows.size(), 2u);
  // Row 0 predates column b: padded with zero to full width.
  ASSERT_EQ(s.rows[0].counter_deltas.size(), 2u);
  EXPECT_EQ(s.rows[0].counter_deltas[1], 0u);
  EXPECT_EQ(s.rows[1].counter_deltas[1], 9u);
}

TEST(TimeSeriesSampler, ToPerfettoGroupsTracksByComponent) {
  obs::MetricsRegistry m;
  m.counter("switch.cells")->inc(4);
  m.add_gauge("buffer.occ", [] { return 2.5; });
  obs::TimeSeriesSampler ts(&m, 8);
  m.sample(100);

  obs::PerfettoTrace tr;
  ts.to_perfetto(tr);
  const std::string doc = tr.json();
  // One named track per component prefix, counter series suffixed /delta.
  EXPECT_NE(doc.find("\"switch\""), std::string::npos);
  EXPECT_NE(doc.find("\"buffer\""), std::string::npos);
  EXPECT_NE(doc.find("cells/delta"), std::string::npos);
  EXPECT_NE(doc.find("\"occ\":2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
}

// ---- PerfettoTrace ---------------------------------------------------------

TEST(PerfettoTrace, EmitsTrackMetadataAndEvents) {
  obs::PerfettoTrace tr;
  tr.set_track_name(3, "worker 3");
  tr.counter(100, 3, "load", {{"cells", 7.0}});
  tr.complete(100, 50, 3, "active", {{"rounds", 2.0}});
  tr.instant(200, 3, "skip");
  EXPECT_EQ(tr.event_count(), 4u);

  const std::string doc = tr.json();
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"worker 3\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"cells\":7"), std::string::npos);
}

TEST(PerfettoTrace, WriteProducesLoadableFile) {
  obs::PerfettoTrace tr;
  tr.set_track_name(1, "t");
  tr.counter(0, 1, "c", {{"v", 1.0}});
  const std::string path = testing::TempDir() + "pmsb_trace_test.json";
  tr.write(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  const std::string on_disk(buf, n);
  EXPECT_EQ(on_disk, tr.json());
}

// ---- FlightRecorder --------------------------------------------------------

TEST(FlightRecorder, DecomposesStagesFromSyntheticEvents) {
  EventHub hub;
  obs::FlightRecorder fr(/*n_ports=*/4, /*cell_words=*/8);
  fr.attach(hub);

  // Head at a0=10, write wave at t0=12, read wave at tr=20:
  // wait_grant=2, buffer=8, serialize=8, total=18.
  hub.head(1, 10, 2);
  hub.accept(1, 10, 12);
  hub.read_grant(2, 1, 20, 12, 10, false);

  EXPECT_EQ(fr.heads(), 1u);
  EXPECT_EQ(fr.completed(), 1u);
  EXPECT_EQ(fr.dropped(), 0u);
  EXPECT_EQ(fr.stage(obs::FlightStage::kWaitGrant).min(), 2u);
  EXPECT_EQ(fr.stage(obs::FlightStage::kBuffer).min(), 8u);
  EXPECT_EQ(fr.stage(obs::FlightStage::kSerialize).min(), 8u);
  EXPECT_EQ(fr.stage(obs::FlightStage::kTotal).min(), 18u);

  hub.drop(3, 11, DropReason::kNoAddress);
  EXPECT_EQ(fr.dropped(), 1u);
  // Drops never reach the histograms (no read grant).
  EXPECT_EQ(fr.stage(obs::FlightStage::kTotal).samples(), 1u);
}

TEST(FlightRecorder, WarmupFiltersByHeadArrival) {
  EventHub hub;
  obs::FlightRecorderConfig cfg;
  cfg.warmup = 100;
  obs::FlightRecorder fr(4, 8, cfg);
  fr.attach(hub);

  hub.head(0, 50, 1);                      // Pre-warmup head: ignored.
  hub.read_grant(1, 0, 60, 55, 50, false); // Its grant: ignored too (a0 < warmup).
  hub.drop(0, 99, DropReason::kNoSlot);    // Pre-warmup drop: ignored.
  hub.head(0, 100, 1);
  hub.read_grant(1, 0, 110, 105, 100, false);

  EXPECT_EQ(fr.heads(), 1u);
  EXPECT_EQ(fr.completed(), 1u);
  EXPECT_EQ(fr.dropped(), 0u);
  EXPECT_EQ(fr.stage(obs::FlightStage::kTotal).samples(), 1u);
}

TEST(FlightRecorder, PerPairHistogramsKeyOnInputOutput) {
  EventHub hub;
  obs::FlightRecorderConfig cfg;
  cfg.per_pair = true;
  obs::FlightRecorder fr(2, 4, cfg);
  fr.attach(hub);

  hub.read_grant(/*output=*/1, /*input=*/0, 20, 15, 10, false);  // total 14.
  hub.read_grant(/*output=*/0, /*input=*/1, 9, 6, 5, false);     // total 8.

  EXPECT_EQ(fr.pair_total(0, 1).samples(), 1u);
  EXPECT_EQ(fr.pair_total(0, 1).min(), 14u);
  EXPECT_EQ(fr.pair_total(1, 0).min(), 8u);
  EXPECT_EQ(fr.pair_total(0, 0).samples(), 0u);
}

TEST(FlightRecorder, MergeFoldsHistogramsAndCounts) {
  EventHub h1, h2;
  obs::FlightRecorder a(4, 8), b(4, 8);
  a.attach(h1);
  b.attach(h2);
  h1.head(0, 0, 1);
  h1.read_grant(1, 0, 10, 5, 0, false);  // total 18.
  h2.head(2, 0, 3);
  h2.read_grant(3, 2, 4, 2, 0, false);   // total 12.

  a.merge(b);
  EXPECT_EQ(a.heads(), 2u);
  EXPECT_EQ(a.completed(), 2u);
  EXPECT_EQ(a.stage(obs::FlightStage::kTotal).samples(), 2u);
  EXPECT_EQ(a.stage(obs::FlightStage::kTotal).min(), 12u);
  EXPECT_EQ(a.stage(obs::FlightStage::kTotal).max(), 18u);
}

TEST(FlightRecorder, RegistersLiveCounters) {
  obs::MetricsRegistry m;
  EventHub hub;
  obs::FlightRecorder fr(4, 8);
  fr.attach(hub);
  fr.register_metrics(m, "fl");
  hub.read_grant(1, 0, 10, 5, 0, false);
  hub.drop(0, 1, DropReason::kOutputLimit);
  EXPECT_EQ(m.find_counter("fl.completed")->value(), 1u);
  EXPECT_EQ(m.find_counter("fl.dropped")->value(), 1u);

  obs::FlightRecorder fr2(4, 8);
  fr2.attach(hub);  // No registry: null-pointer fast path, must not crash.
  hub.read_grant(1, 0, 10, 5, 0, false);
  EXPECT_EQ(fr2.completed(), 1u);
}

TEST(FlightRecorder, StagesAreAdditiveOnARealSwitch) {
  // End-to-end: attach to a real 4x4 PipelinedSwitch run and verify the
  // additive-decomposition contract on every delivered cell in aggregate:
  // identical sample counts per stage and exact sum equality.
  SwitchConfig cfg = SwitchConfig::for_ports(4);
  TrafficSpec spec;
  spec.load = 0.8;
  spec.seed = 91;
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec,
                        /*scoreboard=*/false);
  obs::FlightRecorder fr(cfg.n_ports, cfg.cell_words);
  fr.attach(tb.dut().events());
  tb.run(4000);

  const std::uint64_t n = fr.stage(obs::FlightStage::kTotal).samples();
  ASSERT_GT(n, 100u);
  for (unsigned s = 0; s < obs::kFlightStageCount; ++s)
    EXPECT_EQ(fr.stage(static_cast<obs::FlightStage>(s)).samples(), n);
  EXPECT_EQ(fr.stage(obs::FlightStage::kTotal).sum(),
            fr.stage(obs::FlightStage::kWaitGrant).sum() +
                fr.stage(obs::FlightStage::kBuffer).sum() +
                fr.stage(obs::FlightStage::kSerialize).sum());
  EXPECT_EQ(fr.stage(obs::FlightStage::kSerialize).min(), cfg.cell_words);
  EXPECT_EQ(fr.stage(obs::FlightStage::kSerialize).max(), cfg.cell_words);
  EXPECT_EQ(fr.completed(), n);
}

// ---- TraceBuffer -----------------------------------------------------------

obs::TraceRecord rec(Cycle t, std::uint32_t arg = 0) {
  obs::TraceRecord r;
  r.t = t;
  r.event = obs::TraceEvent::kHead;
  r.arg = arg;
  return r;
}

TEST(TraceBuffer, RetainsEverythingBelowCapacity) {
  obs::TraceBuffer buf(8);
  for (Cycle t = 0; t < 5; ++t) buf.push(rec(t));
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.total(), 5u);
  EXPECT_EQ(buf.overwritten(), 0u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(buf.at(i).t, static_cast<Cycle>(i));
}

TEST(TraceBuffer, WrapsAroundKeepingNewest) {
  obs::TraceBuffer buf(4);
  for (Cycle t = 0; t < 10; ++t) buf.push(rec(t));
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total(), 10u);
  EXPECT_EQ(buf.overwritten(), 6u);
  // Oldest retained is record #6 (0-based), newest is #9.
  EXPECT_EQ(buf.at(0).t, 6);
  EXPECT_EQ(buf.at(3).t, 9);

  Cycle expect = 6;
  buf.for_each([&](const obs::TraceRecord& r) { EXPECT_EQ(r.t, expect++); });
  EXPECT_EQ(expect, 10);
}

TEST(TraceBuffer, ExactCapacityBoundaryDoesNotOverwrite) {
  // Pushing exactly `capacity` records must retain all of them with zero
  // overwrites; the very next push evicts exactly one.
  obs::TraceBuffer buf(4);
  for (Cycle t = 0; t < 4; ++t) buf.push(rec(t));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total(), 4u);
  EXPECT_EQ(buf.overwritten(), 0u);
  EXPECT_EQ(buf.at(0).t, 0);
  EXPECT_EQ(buf.at(3).t, 3);

  buf.push(rec(4));  // capacity + 1: oldest record (t=0) is gone.
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.overwritten(), 1u);
  EXPECT_EQ(buf.at(0).t, 1);
  EXPECT_EQ(buf.at(3).t, 4);
}

TEST(TraceBuffer, SingleSlotRingAlwaysHoldsNewest) {
  obs::TraceBuffer buf(1);
  for (Cycle t = 0; t < 3; ++t) buf.push(rec(t));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.overwritten(), 2u);
  EXPECT_EQ(buf.at(0).t, 2);
}

TEST(TraceBuffer, ClearDropsRetainedRecords) {
  obs::TraceBuffer buf(4);
  for (Cycle t = 0; t < 3; ++t) buf.push(rec(t));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  buf.push(rec(99));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.at(0).t, 99);
}

TEST(TraceBuffer, LiveDrainSeesEveryPush) {
  obs::TraceBuffer buf(2);
  std::vector<Cycle> seen;
  buf.set_live_drain([&](const obs::TraceRecord& r) { seen.push_back(r.t); });
  for (Cycle t = 0; t < 5; ++t) buf.push(rec(t));
  // The drain sees all 5 even though the ring only retains 2.
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), 0);
  EXPECT_EQ(seen.back(), 4);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(TraceBuffer, FormatsEveryEventKind) {
  using obs::TraceEvent;
  for (TraceEvent e : {TraceEvent::kHead, TraceEvent::kWriteWave, TraceEvent::kReadGrant,
                       TraceEvent::kCutThrough, TraceEvent::kSnoop, TraceEvent::kDrop,
                       TraceEvent::kWaveInit, TraceEvent::kViolation}) {
    obs::TraceRecord r;
    r.event = e;
    EXPECT_FALSE(std::string(obs::to_string(e)).empty());
    EXPECT_FALSE(obs::format(r).empty());
  }
}

TEST(TraceBuffer, FormatsViolationWithInvariantAndDigest) {
  obs::TraceRecord r;
  r.event = obs::TraceEvent::kViolation;
  r.arg = 7;             // check::Invariant id.
  r.addr = 0xDEADBEEF;   // State digest of the violating cycle.
  const std::string line = obs::format(r);
  EXPECT_NE(line.find("VIOLATION"), std::string::npos);
  EXPECT_NE(line.find("invariant=7"), std::string::npos);
  EXPECT_NE(line.find("deadbeef"), std::string::npos);
}

// ---- Tracer as a drain -----------------------------------------------------

TEST(TracerDeath, NullSinkIsRejected) {
  EXPECT_DEATH({ Tracer t(nullptr); }, "tracer needs a sink");
}

// ---- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, WritesNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "e1");
  w.field("count", 3);
  w.key("vals").begin_array().value(1.5).value(true).null().end_array();
  w.end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_EQ(w.str(), "{\"name\":\"e1\",\"count\":3,\"vals\":[1.5,true,null]}");
}

TEST(JsonWriter, EscapesStrings) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("k", "a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.value(2.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,2]");
}

TEST(JsonWriter, IncompleteUntilBalanced) {
  obs::JsonWriter w;
  w.begin_object();
  EXPECT_FALSE(w.complete());
  w.end_object();
  EXPECT_TRUE(w.complete());
}

// ---- BenchJson -------------------------------------------------------------

TEST(BenchJson, CarriesDefaultSchemaAndTables) {
  bench::BenchJson bj("unit");
  bj.metric("throughput", 0.75);  // Overwrites the seeded default.
  bj.metric("extra", 2.0);
  Table t({"a", "b"});
  t.add_row({"1", "x\"y"});
  bj.add_table("tbl", t);

  const std::string doc = bj.json();
  EXPECT_NE(doc.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"throughput\":0.75"), std::string::npos);
  EXPECT_NE(doc.find("\"mean_latency\":0"), std::string::npos);  // Seeded default.
  EXPECT_NE(doc.find("\"occupancy\":0"), std::string::npos);
  // Schema v2: percentile keys are seeded so every artifact carries them.
  EXPECT_NE(doc.find("\"p50_latency\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"p90_latency\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"p99_latency\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"p999_latency\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"extra\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"title\":\"tbl\""), std::string::npos);
  EXPECT_NE(doc.find("\"headers\":[\"a\",\"b\"]"), std::string::npos);
  EXPECT_NE(doc.find("[\"1\",\"x\\\"y\"]"), std::string::npos);
  // Build provenance lives in the runtime object (stripped by determinism
  // diffs), never in the diffed surface.
  EXPECT_NE(doc.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(doc.find("\"flags\":"), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\":"), std::string::npos);
  EXPECT_GT(doc.find("\"compiler\":"), doc.find("\"runtime\":"));
  // No timeseries was attached: the optional key is absent.
  EXPECT_EQ(doc.find("\"timeseries\""), std::string::npos);
}

TEST(BenchJson, PercentileHelpersFillSchemaAndPrefixedKeys) {
  bench::BenchJson bj("unit");
  HdrHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  bj.latency_percentiles(h);
  bj.percentile_metrics("stage buffer", h);
  const std::string doc = bj.json();
  EXPECT_NE(doc.find("\"p50_latency\":50"), std::string::npos);
  EXPECT_NE(doc.find("\"p99_latency\":99"), std::string::npos);
  EXPECT_NE(doc.find("\"p999_latency\":100"), std::string::npos);
  EXPECT_NE(doc.find("\"stage buffer p50\":50"), std::string::npos);
  EXPECT_NE(doc.find("\"stage buffer p999\":100"), std::string::npos);
}

TEST(BenchJson, TimeseriesSectionCarriesColumnsAndRows) {
  obs::MetricsRegistry m;
  m.counter("sw.cells")->inc(4);
  m.add_gauge("buf.occ", [] { return 1.5; });
  obs::TimeSeriesSampler ts(&m, 8);
  m.sample(100);

  bench::BenchJson bj("unit");
  bj.set_timeseries(ts.series());
  const std::string doc = bj.json();
  EXPECT_NE(doc.find("\"timeseries\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"counter_columns\":[\"sw.cells\"]"), std::string::npos);
  EXPECT_NE(doc.find("\"gauge_columns\":[\"buf.occ\"]"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"rows\":[[100,4,1.5]]"), std::string::npos);
}

// ---- run_uniform warmup accounting -----------------------------------------

// A model that deliberately delivers NOTHING during warmup and exactly n
// cells per slot afterwards: post-fix, measured throughput at load 1.0 must
// be exactly 1.0 (pre-fix it was diluted to 1 - warmup_fraction).
class StallUntilWarmup : public SlotModel {
 public:
  explicit StallUntilWarmup(unsigned n) : SlotModel(n) {}

  // Shadows SlotModel::set_warmup; run_uniform calls it on the concrete
  // type, so the model learns the warmup horizon it should stall through.
  void set_warmup(Cycle until) {
    stall_until_ = until;
    SlotModel::set_warmup(until);
  }

  void do_step(Cycle slot,
               const std::vector<std::optional<SlotTraffic::Arrival>>& arrivals) override {
    for (unsigned i = 0; i < n_; ++i) {
      if (arrivals[i]) {
        on_injected();
        q_.push_back(SlotCell{slot, i, arrivals[i]->dest});
      }
    }
    if (slot >= stall_until_) {
      for (unsigned k = 0; k < n_ && !q_.empty(); ++k) {
        on_delivered(slot, q_.front());
        q_.pop_front();
      }
    }
  }
  std::uint64_t resident() const override { return q_.size(); }
  const char* kind() const override { return "stall-until-warmup"; }

 private:
  Cycle stall_until_ = 0;
  std::deque<SlotCell> q_;
};

TEST(RunUniform, ThroughputIsNormalizedOverMeasuredWindowOnly) {
  const unsigned n = 4;
  const Cycle slots = 1000;
  const bench::SlotRun r = bench::run_uniform(
      [&] { return std::make_unique<StallUntilWarmup>(n); }, n, /*load=*/1.0, slots, /*seed=*/1,
      /*warmup_fraction=*/0.2);
  EXPECT_EQ(r.warmup_slots, 200);
  EXPECT_EQ(r.measured_slots, 800);
  // Load 1.0 injects n cells every slot; the model delivers exactly n per
  // measured slot. Counting only the post-warmup window, throughput is
  // exactly 1.0 (the pre-fix all-slots normalization would report 0.8).
  EXPECT_DOUBLE_EQ(r.throughput, 1.0);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
}

TEST(RunUniform, ZeroWarmupCountsEverything) {
  const unsigned n = 4;
  const bench::SlotRun r = bench::run_uniform(
      [&] { return std::make_unique<StallUntilWarmup>(n); }, n, 1.0, 500, 2,
      /*warmup_fraction=*/0.0);
  EXPECT_EQ(r.warmup_slots, 0);
  EXPECT_EQ(r.measured_slots, 500);
  EXPECT_DOUBLE_EQ(r.throughput, 1.0);  // No stall window at all.
}

}  // namespace
}  // namespace pmsb
