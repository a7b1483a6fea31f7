// Tests of the traffic generators: measured rates match the configured
// loads, framing is well-formed, patterns behave as specified.

#include <gtest/gtest.h>

#include "core/testbench.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/generators.hpp"
#include "traffic/spec.hpp"

namespace pmsb {
namespace {

/// Count valid cycles / sop cycles on a link driven by `src` for `cycles`.
struct LinkProbe {
  std::uint64_t valid = 0;
  std::uint64_t sops = 0;
  std::uint64_t gaps_inside_cell = 0;
};

template <typename SourceT>
LinkProbe probe(SourceT& src, WireLink& link, Cycle cycles) {
  Engine eng;
  eng.add(&src);
  LinkProbe p;
  unsigned in_cell = 0;
  const unsigned L = 8;
  for (Cycle c = 0; c < cycles; ++c) {
    eng.step();
    link.tick();  // The probe owns the link clock (no switch attached).
    const Flit& f = link.now();
    if (f.valid) {
      ++p.valid;
      if (f.sop) {
        EXPECT_EQ(in_cell, 0u) << "head inside a cell";
        ++p.sops;
        in_cell = L - 1;
      } else {
        EXPECT_GT(in_cell, 0u) << "body word outside a cell";
        --in_cell;
      }
    } else if (in_cell != 0) {
      ++p.gaps_inside_cell;
    }
  }
  return p;
}

CellFormat fmt8() { return CellFormat{16, 2, 8}; }

TEST(CellSource, GeometricLoadMatches) {
  for (double load : {0.2, 0.5, 0.9}) {
    WireLink link;
    UniformDest dests(4);
    CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kGeometric, load, Rng(7));
    const LinkProbe p = probe(src, link, 200000);
    EXPECT_NEAR(p.valid / 200000.0, load, 0.02) << "load " << load;
    EXPECT_EQ(p.gaps_inside_cell, 0u);
  }
}

TEST(CellSource, SlottedStartsOnBoundariesOnly) {
  WireLink link;
  UniformDest dests(4);
  CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kSlotted, 0.5, Rng(8));
  Engine eng;
  eng.add(&src);
  for (Cycle c = 0; c < 20000; ++c) {
    eng.step();
    link.tick();
    if (link.now().sop) {
      EXPECT_EQ((c + 1) % 8, 0u) << "cell started off-slot";
    }
  }
}

TEST(CellSource, SaturatedIsBackToBack) {
  WireLink link;
  UniformDest dests(4);
  CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kSaturated, 1.0, Rng(9));
  const LinkProbe p = probe(src, link, 8000);
  EXPECT_EQ(p.valid, 8000u - 0u);  // Every cycle busy once started... from cycle 1.
}

TEST(CellSource, InjectionCallbackMatchesWire) {
  WireLink link;
  UniformDest dests(4);
  CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kGeometric, 0.4, Rng(10));
  std::vector<CellSource::Injection> injections;
  src.set_on_inject([&](const CellSource::Injection& i) { injections.push_back(i); });
  Engine eng;
  eng.add(&src);
  std::vector<Cycle> sop_cycles;
  for (Cycle c = 0; c < 5000; ++c) {
    eng.step();
    link.tick();
    if (link.now().sop) sop_cycles.push_back(c + 1);  // Wire cycle = c+1.
  }
  ASSERT_EQ(injections.size(), sop_cycles.size());
  for (std::size_t k = 0; k < sop_cycles.size(); ++k) {
    EXPECT_EQ(injections[k].head_on_wire, sop_cycles[k]);
  }
}

TEST(CellSource, DisableStopsNewCells) {
  WireLink link;
  UniformDest dests(4);
  CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kSaturated, 1.0, Rng(11));
  Engine eng;
  eng.add(&src);
  for (int c = 0; c < 100; ++c) {
    eng.step();
    link.tick();
  }
  src.set_enabled(false);
  const std::uint64_t at_disable = src.cells_injected();
  for (int c = 0; c < 100; ++c) {
    eng.step();
    link.tick();
  }
  // At most the in-flight cell finishes; no new cells start.
  EXPECT_LE(src.cells_injected(), at_disable + 1);
}

TEST(BurstySource, LoadMatchesAndBurstsShareDest) {
  WireLink link;
  UniformDest dests(8);
  CellFormat fmt{16, 3, 8};
  CellSource src(0, &link, fmt, &dests, ArrivalKind::kBursty, 0.6, Rng(12), 8.0);
  std::vector<unsigned> dests_seen;
  src.set_on_inject(
      [&](const CellSource::Injection& i) { dests_seen.push_back(i.dest); });
  Engine eng;
  eng.add(&src);
  std::uint64_t valid = 0;
  for (Cycle c = 0; c < 200000; ++c) {
    eng.step();
    link.tick();
    valid += link.now().valid;
  }
  EXPECT_NEAR(valid / 200000.0, 0.6, 0.03);
  // Consecutive cells repeat destinations far more often than uniform (1/8).
  std::size_t repeats = 0;
  for (std::size_t k = 1; k < dests_seen.size(); ++k)
    repeats += (dests_seen[k] == dests_seen[k - 1]);
  EXPECT_GT(static_cast<double>(repeats) / dests_seen.size(), 0.5);
}

TEST(SlotTraffic, BernoulliRateMatches) {
  UniformDest dests(8);
  SlotTraffic t(8, 0.7, &dests, Rng(13));
  std::uint64_t arrivals = 0;
  const Cycle slots = 100000;
  for (Cycle s = 0; s < slots; ++s) {
    for (const auto& a : t.step()) arrivals += a.has_value();
  }
  EXPECT_NEAR(arrivals / (8.0 * slots), 0.7, 0.01);
}

TEST(SlotTraffic, BurstyRateMatches) {
  UniformDest dests(8);
  auto t = SlotTraffic::bursty(8, 0.5, 16.0, &dests, Rng(14));
  std::uint64_t arrivals = 0;
  const Cycle slots = 200000;
  for (Cycle s = 0; s < slots; ++s) {
    for (const auto& a : t.step()) arrivals += a.has_value();
  }
  EXPECT_NEAR(arrivals / (8.0 * slots), 0.5, 0.02);
}

TEST(SlotTraffic, BurstyRunsAreLong) {
  UniformDest dests(2);
  auto t = SlotTraffic::bursty(1, 0.5, 16.0, &dests, Rng(15));
  // Measure mean run length of consecutive arrival slots on one input.
  std::uint64_t runs = 0, busy = 0;
  bool prev = false;
  for (Cycle s = 0; s < 200000; ++s) {
    const bool now = t.step()[0].has_value();
    busy += now;
    runs += (now && !prev);
    prev = now;
  }
  ASSERT_GT(runs, 0u);
  EXPECT_NEAR(static_cast<double>(busy) / runs, 16.0, 2.0);
}

TEST(Patterns, PermutationIsBijective) {
  Rng rng(16);
  for (unsigned n : {2u, 5u, 16u}) {
    const auto p = random_permutation(n, rng);
    std::vector<bool> seen(n, false);
    for (unsigned v : p) {
      ASSERT_LT(v, n);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(Patterns, HotspotFraction) {
  Rng rng(17);
  HotspotDest h(8, 3, 0.5);
  std::uint64_t hot = 0;
  const int kTrials = 100000;
  for (int k = 0; k < kTrials; ++k) hot += (h.pick(0, rng) == 3);
  // 0.5 direct + 0.5 * 1/8 uniform share.
  EXPECT_NEAR(hot / double(kTrials), 0.5 + 0.5 / 8, 0.01);
}

TEST(Patterns, UniformCoversAllOutputs) {
  Rng rng(18);
  UniformDest u(4);
  std::vector<int> counts(4, 0);
  for (int k = 0; k < 40000; ++k) ++counts[u.pick(0, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Patterns, HotSendersSplitAggressorsFromBackground) {
  Rng rng(19);
  HotSendersDest d(16, /*hot=*/0, /*frac=*/0.25);
  for (unsigned src = 0; src < 16; ++src) {
    const bool aggressor = src % 4 == 3;  // every round(1/0.25)-th input
    for (int k = 0; k < 200; ++k) {
      const unsigned dest = d.pick(src, rng);
      if (aggressor) {
        EXPECT_EQ(dest, 0u) << src;
      } else {
        EXPECT_NE(dest, 0u) << src;  // background never hits the hot output
        EXPECT_LT(dest, 16u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GeneratorSpec: the one textual workload grammar shared by benches, tests
// and the fabric config.

TEST(GeneratorSpec, ParsesEveryKindAndRoundTrips) {
  using traffic::GeneratorSpec;
  const auto uni = GeneratorSpec::parse("uniform:0.8");
  EXPECT_EQ(uni.kind, GeneratorSpec::Kind::kUniform);
  EXPECT_DOUBLE_EQ(uni.load_or(0.1), 0.8);

  const auto perm = GeneratorSpec::parse("permutation");
  EXPECT_EQ(perm.kind, GeneratorSpec::Kind::kPermutation);
  EXPECT_DOUBLE_EQ(perm.load_or(0.1), 0.1);  // no embedded load

  const auto hot = GeneratorSpec::parse("hotspot:0.25,0.9");
  EXPECT_EQ(hot.kind, GeneratorSpec::Kind::kHotspot);
  EXPECT_DOUBLE_EQ(hot.hot_fraction, 0.25);
  EXPECT_DOUBLE_EQ(hot.load_or(0.1), 0.9);

  const auto hs = GeneratorSpec::parse("hotsenders:0.25,0.95");
  EXPECT_EQ(hs.kind, GeneratorSpec::Kind::kHotSenders);
  EXPECT_DOUBLE_EQ(hs.hot_fraction, 0.25);
  EXPECT_DOUBLE_EQ(hs.load_or(0.1), 0.95);

  const auto in = GeneratorSpec::parse("incast:16");
  EXPECT_EQ(in.kind, GeneratorSpec::Kind::kIncast);
  EXPECT_EQ(in.fan_in, 16u);

  const auto par = GeneratorSpec::parse("pareto:0.6,1.4");
  EXPECT_EQ(par.kind, GeneratorSpec::Kind::kPareto);
  EXPECT_DOUBLE_EQ(par.load_or(0.1), 0.6);
  EXPECT_DOUBLE_EQ(par.shape, 1.4);

  // describe() is round-trippable: parse(describe(s)) == s, field for field.
  for (const char* text : {"uniform:0.8", "permutation", "hotspot:0.25,0.9",
                           "hotsenders:0.25,0.95", "incast:16,0.7", "bursty:0.5,12",
                           "pareto:0.6,1.4,10"}) {
    const auto a = GeneratorSpec::parse(text);
    const auto b = GeneratorSpec::parse(a.describe());
    EXPECT_EQ(a.kind, b.kind) << text;
    EXPECT_EQ(a.load.has_value(), b.load.has_value()) << text;
    if (a.load.has_value()) {
      EXPECT_DOUBLE_EQ(*a.load, *b.load) << text;
    }
    EXPECT_DOUBLE_EQ(a.hot_fraction, b.hot_fraction) << text;
    EXPECT_EQ(a.fan_in, b.fan_in) << text;
    EXPECT_DOUBLE_EQ(a.mean_burst, b.mean_burst) << text;
    EXPECT_DOUBLE_EQ(a.shape, b.shape) << text;
  }
}

TEST(GeneratorSpec, RejectsMalformedSpecs) {
  using traffic::GeneratorSpec;
  for (const char* text :
       {"", "nonsense", "uniform:", "uniform:1.5", "uniform:x", "hotspot",
        "hotspot:0", "hotspot:1.5", "hotsenders", "hotsenders:0",
        "incast:0.5", "incast", "bursty", "bursty:0.5,0.2", "pareto",
        "pareto:0.5,0.9", "uniform:0.5,0.6", "uniform:nan", "pareto:nan,1.4,16",
        "hotspot:nan,0.5", "uniform:inf", "bursty:0.5,inf", "hotspot:0.5,-nan"}) {
    EXPECT_THROW(GeneratorSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(GeneratorSpec, MakeDestMatchesKind) {
  using traffic::GeneratorSpec;
  Rng rng(20);
  const auto hs = GeneratorSpec::parse("hotsenders:0.25");
  const auto dest = hs.make_dest(16, rng);
  EXPECT_EQ(dest->pick(3, rng), 0u);   // aggressor input
  EXPECT_NE(dest->pick(0, rng), 0u);   // background input
}

// ---------------------------------------------------------------------------
// traffic::Arrivals, the fabric endpoints' one arrival process.

struct Draw {
  Cycle cycle;
  unsigned dest;
  std::uint64_t seq;
  bool operator==(const Draw&) const = default;
};

traffic::Arrivals make_arrivals(DestPattern* dests, unsigned src, double per_cycle,
                                std::uint64_t seed) {
  traffic::Arrivals a;
  a.per_cycle = per_cycle;
  a.src = src;
  a.dests = dests;
  a.rng = Rng(seed);
  return a;
}

/// Move everything the backlog holds into `out`.
void drain(traffic::Arrivals& a, std::vector<Draw>& out) {
  for (const auto& p : a.backlog) out.push_back(Draw{p.created, p.dest, p.seq});
  a.backlog.clear();
}

// Stepping every cycle and jumping from arrival to arrival (what idle
// skipping does between arrivals) consume the RNG stream identically.
TEST(Arrivals, SkippedStretchesReplayTheSteppedDraws) {
  UniformDest dests(16);
  traffic::Arrivals stepped = make_arrivals(&dests, 3, 0.01, 7);
  traffic::Arrivals skipped = make_arrivals(&dests, 3, 0.01, 7);
  std::vector<Draw> a, b;
  constexpr Cycle kCycles = 50000;
  for (Cycle t = 0; t < kCycles; ++t) {
    stepped.step(t);
    drain(stepped, a);
  }
  for (Cycle t = 0; t < kCycles; t = skipped.next_arrival) {
    skipped.step(t);
    drain(skipped, b);
  }
  ASSERT_GT(a.size(), 300u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stepped.generated, a.size());
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k].seq, k);
}

// The cell fabrics' uniform draw is pinned: per-cycle Bernoulli trials, then
// next_below(n - 1) stepped past the source -- the formula every torus and
// ring artifact was produced with.
TEST(Arrivals, UniformExcludingSelfMatchesPinnedCellDraw) {
  constexpr unsigned kNodes = 16, kSelf = 5;
  constexpr double kRate = 0.05;
  UniformDest others(kNodes, SelfRule::kExcluded);
  traffic::Arrivals a = make_arrivals(&others, kSelf, kRate, 99);
  std::vector<Draw> got;
  for (Cycle t = 0; got.size() < 200; ++t) {
    a.step(t);
    drain(a, got);
  }
  Rng ref(99);
  Cycle t = 0;
  for (std::uint64_t k = 0; k < 200; ++k, ++t) {
    while (!ref.next_bool(kRate)) ++t;
    auto dest = static_cast<unsigned>(ref.next_below(kNodes - 1));
    if (dest >= kSelf) ++dest;
    EXPECT_EQ(got[k], (Draw{t, dest, k})) << k;
  }
}

TEST(Arrivals, ZeroRateNeverArrives) {
  UniformDest dests(4);
  traffic::Arrivals a = make_arrivals(&dests, 0, 0.0, 1);
  EXPECT_EQ(a.next_arrival, 0);  // Unprimed: a wake query must not skip.
  a.step(0);
  EXPECT_EQ(a.next_arrival, kNeverWake);
  EXPECT_TRUE(a.backlog.empty());
}

// With self excluded, no kind ever addresses its source, down to n = 2.
TEST(Patterns, SelfExcludedNeverPicksTheSource) {
  using traffic::GeneratorSpec;
  for (unsigned n : {2u, 3u, 16u}) {
    for (const char* text : {"uniform", "permutation", "hotspot:0.3", "hotspot:1",
                             "hotsenders:0.25", "hotsenders:1", "incast:1", "incast:16",
                             "bursty:0.5", "pareto:0.5"}) {
      Rng rng(n);
      const auto dests = GeneratorSpec::parse(text).make_dest(n, rng, SelfRule::kExcluded);
      for (unsigned src = 0; src < n; ++src) {
        for (int k = 0; k < 10000; ++k) {
          const unsigned d = dests->pick(src, rng);
          ASSERT_LT(d, n) << text << " n=" << n;
          ASSERT_NE(d, src) << text << " n=" << n;
        }
      }
    }
  }
}

TEST(Patterns, SelfExcludedPermutationIsADerangement) {
  for (unsigned n : {2u, 3u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      const std::vector<unsigned> p = random_permutation(n, rng, SelfRule::kExcluded);
      std::vector<bool> hit(n, false);
      for (unsigned i = 0; i < n; ++i) {
        ASSERT_LT(p[i], n);
        EXPECT_NE(p[i], i) << "fixed point, n=" << n << " seed=" << seed;
        EXPECT_FALSE(hit[p[i]]) << "not a bijection, n=" << n << " seed=" << seed;
        hit[p[i]] = true;
      }
    }
  }
}

// Background traffic with the source excluded is uniform over the outputs
// other than the target and the source, through the shared skip helper.
TEST(Patterns, UniformExceptSkipsExcludedValuesInOrder) {
  Rng rng(3);
  std::vector<unsigned> count(8, 0);
  for (int k = 0; k < 60000; ++k) ++count[uniform_except(rng, 8, 5, 2)];
  EXPECT_EQ(count[2], 0u);
  EXPECT_EQ(count[5], 0u);
  for (unsigned v : {0u, 1u, 3u, 4u, 6u, 7u}) EXPECT_NEAR(count[v], 10000, 500) << v;
}

}  // namespace
}  // namespace pmsb
