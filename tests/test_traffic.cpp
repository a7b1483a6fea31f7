// Tests of the traffic generators: measured rates match the configured
// loads, framing is well-formed, patterns behave as specified.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/testbench.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/generators.hpp"
#include "traffic/spec.hpp"

namespace pmsb {
namespace {

/// Offered-load conformance: the mean of `batches` batch means lies within
/// four standard errors of `want`. Batches much longer than a burst are
/// nearly independent even when neighbouring cycles are not, so the spread
/// of their means estimates the standard error honestly.
void expect_batch_mean_near(const std::vector<double>& batches, double want,
                            const std::string& what) {
  const auto k = static_cast<double>(batches.size());
  ASSERT_GE(batches.size(), 20u) << what;
  double mean = 0.0;
  for (double m : batches) mean += m / k;
  double var = 0.0;
  for (double m : batches) var += (m - mean) * (m - mean) / (k - 1);
  const double std_err = std::sqrt(var / k);
  EXPECT_LE(std::abs(mean - want), 4.0 * std_err + 1e-12)
      << what << ": measured " << mean << " +- " << std_err << ", want " << want;
}

constexpr unsigned kBatches = 20;

/// What a CellSource put on its link over one batch of cycles.
struct LinkProbe {
  std::uint64_t valid = 0;
  std::uint64_t sops = 0;
  std::uint64_t gaps_inside_cell = 0;
  std::uint64_t runs = 0;  ///< Maximal stretches of back-to-back cells.
};

/// Steps `eng` (which clocks the source driving `link`) for `cycles`,
/// reading the link every cycle. `in_cell` and `prev_valid` carry the
/// framing state across batches.
LinkProbe probe(Engine& eng, const WireLink& link, Cycle cycles, unsigned L,
                unsigned& in_cell, bool& prev_valid) {
  LinkProbe p;
  for (Cycle c = 0; c < cycles; ++c) {
    eng.step();
    const Flit& f = link.now(eng.now());
    if (f.valid) {
      ++p.valid;
      p.runs += !prev_valid;
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
    prev_valid = f.valid;
  }
  return p;
}

/// Runs `src` for kBatches batches of `batch` cycles each.
std::vector<LinkProbe> probe_batches(CellSource& src, const WireLink& link, Cycle batch,
                                     unsigned L) {
  Engine eng;
  eng.add(&src);
  unsigned in_cell = 0;
  bool prev_valid = false;
  std::vector<LinkProbe> out;
  for (unsigned b = 0; b < kBatches; ++b)
    out.push_back(probe(eng, link, batch, L, in_cell, prev_valid));
  return out;
}

/// Fraction of cycles with a word on the link, per batch.
std::vector<double> link_loads(const std::vector<LinkProbe>& batches, Cycle batch) {
  std::vector<double> loads;
  for (const LinkProbe& p : batches)
    loads.push_back(static_cast<double>(p.valid) / static_cast<double>(batch));
  return loads;
}

CellFormat fmt8() { return CellFormat{16, 2, 8}; }

/// Mutant killed: an off-by-one gap counter (one extra idle cycle after
/// every cell) offers 0.471 at 0.5 and 0.809 at 0.9.
TEST(CellSource, GeometricLoadMatches) {
  constexpr Cycle kBatch = 20000;
  for (double load : {0.2, 0.5, 0.9}) {
    WireLink link;
    UniformDest dests(4);
    CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kGeometric, load, Rng(7));
    const std::vector<LinkProbe> b = probe_batches(src, link, kBatch, 8);
    expect_batch_mean_near(link_loads(b, kBatch), load, "geometric " + std::to_string(load));
    for (const LinkProbe& p : b) EXPECT_EQ(p.gaps_inside_cell, 0u);
  }
}

/// Mutant killed: each slot-boundary trial drawn at 1.04 x load.
TEST(CellSource, SlottedLoadMatches) {
  constexpr Cycle kBatch = 20000;
  for (double load : {0.2, 0.5, 0.9}) {
    WireLink link;
    UniformDest dests(4);
    CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kSlotted, load, Rng(16));
    const std::vector<LinkProbe> b = probe_batches(src, link, kBatch, 8);
    expect_batch_mean_near(link_loads(b, kBatch), load, "slotted " + std::to_string(load));
    for (const LinkProbe& p : b) EXPECT_EQ(p.gaps_inside_cell, 0u);
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
    if (link.now(eng.now()).sop) {
      EXPECT_EQ((c + 1) % 8, 0u) << "cell started off-slot";
    }
  }
}

TEST(CellSource, SaturatedIsBackToBack) {
  WireLink link;
  UniformDest dests(4);
  CellSource src(0, &link, fmt8(), &dests, ArrivalKind::kSaturated, 1.0, Rng(9));
  std::uint64_t runs = 0;
  for (const LinkProbe& p : probe_batches(src, link, 400, 8)) {
    EXPECT_EQ(p.valid, 400u);  // The head is on the wire from cycle 1 on.
    runs += p.runs;
  }
  EXPECT_EQ(runs, 1u);
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
    if (link.now(eng.now()).sop) sop_cycles.push_back(eng.now());  // Wire cycle = c+1.
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
  eng.run(100);
  src.set_enabled(false);
  const std::uint64_t at_disable = src.cells_injected();
  eng.run(100);
  // At most the in-flight cell finishes; no new cells start.
  EXPECT_LE(src.cells_injected(), at_disable + 1);
}

struct BurstCase {
  double load, mean_burst;
};
constexpr BurstCase kBurstCases[] = {{0.3, 4.0}, {0.6, 8.0}, {0.85, 8.0}};
constexpr Cycle kBurstBatch = 40000;
const CellFormat kBurstFmt{16, 3, 8};

std::string burst_case_name(const BurstCase& c) {
  return "bursty " + std::to_string(c.load) + " burst " + std::to_string(c.mean_burst);
}

/// Mutant killed: the off-by-one gap counter, which offers 0.594 at 0.6
/// and 0.842 at 0.85 with 8-cell bursts.
TEST(BurstySource, LoadMatchesAndBurstsShareDest) {
  for (const BurstCase& c : kBurstCases) {
    WireLink link;
    UniformDest dests(8);
    CellSource src(0, &link, kBurstFmt, &dests, ArrivalKind::kBursty, c.load, Rng(12),
                   c.mean_burst);
    std::vector<unsigned> dests_seen;
    src.set_on_inject(
        [&](const CellSource::Injection& i) { dests_seen.push_back(i.dest); });
    const std::vector<LinkProbe> b =
        probe_batches(src, link, kBurstBatch, kBurstFmt.length_words);
    expect_batch_mean_near(link_loads(b, kBurstBatch), c.load, burst_case_name(c));
    // Consecutive cells repeat destinations far more often than uniform (1/8).
    std::size_t repeats = 0;
    for (std::size_t k = 1; k < dests_seen.size(); ++k)
      repeats += (dests_seen[k] == dests_seen[k - 1]);
    EXPECT_GT(static_cast<double>(repeats) / dests_seen.size(), 0.5) << burst_case_name(c);
  }
}

/// A burst is followed by a zero-cycle gap with probability
/// q = 1 / (1 + mean gap), so a run of back-to-back cells holds 1 / (1 - q)
/// bursts on average and its mean length is B / (1 - q) cells. Mutant
/// killed: a stop probability of 1 / (B + 1), whose runs average about one
/// cell too many while the offered load stays right (the gap is sized from
/// the same probability).
TEST(BurstySource, MeanBurstLengthMatches) {
  for (const BurstCase& c : kBurstCases) {
    WireLink link;
    UniformDest dests(8);
    CellSource src(0, &link, kBurstFmt, &dests, ArrivalKind::kBursty, c.load, Rng(17),
                   c.mean_burst);
    const std::vector<LinkProbe> b =
        probe_batches(src, link, kBurstBatch, kBurstFmt.length_words);
    std::vector<double> run_cells;
    for (const LinkProbe& p : b)
      run_cells.push_back(static_cast<double>(p.sops) / static_cast<double>(p.runs));
    const double on = kBurstFmt.length_words * c.mean_burst;
    const double q = 1.0 / (1.0 + on * (1.0 - c.load) / c.load);
    expect_batch_mean_near(run_cells, c.mean_burst / (1.0 - q), burst_case_name(c));
  }
}

/// Mutant killed: each per-input trial drawn at 1.04 x load.
TEST(SlotTraffic, BernoulliRateMatches) {
  constexpr unsigned kInputs = 8;
  constexpr Cycle kBatchSlots = 5000;
  for (double load : {0.2, 0.7, 0.95}) {
    UniformDest dests(kInputs);
    SlotTraffic t(kInputs, load, &dests, Rng(13));
    std::vector<double> means;
    for (unsigned b = 0; b < kBatches; ++b) {
      std::uint64_t arrivals = 0;
      for (Cycle s = 0; s < kBatchSlots; ++s) arrivals += t.step().size();
      means.push_back(static_cast<double>(arrivals) /
                      (kInputs * static_cast<double>(kBatchSlots)));
    }
    expect_batch_mean_near(means, load, "bernoulli " + std::to_string(load));
  }
}

/// The offered load of geometric on/off bursts equals the configured load
/// within four standard errors of the mean, estimated from 20 batch means
/// (bursts correlate neighbouring slots, so the slots themselves are not
/// independent samples). A start probability that ignores the emission in
/// the start slot offers 0.516 at 0.5, 0.889 at 0.8 and 1.0 at 0.9, each
/// many standard errors out.
TEST(SlotTraffic, BurstyRateMatches) {
  struct Case {
    double load, mean_burst;
  };
  constexpr unsigned kInputs = 8;
  constexpr Cycle kBatchSlots = 10000;
  for (const Case c : {Case{0.5, 16.0}, Case{0.8, 8.0}, Case{0.9, 8.0}}) {
    UniformDest dests(kInputs);
    auto t = SlotTraffic::bursty(kInputs, c.load, c.mean_burst, &dests, Rng(14));
    std::vector<double> means;
    for (unsigned b = 0; b < kBatches; ++b) {
      std::uint64_t arrivals = 0;
      for (Cycle s = 0; s < kBatchSlots; ++s) arrivals += t.step().size();
      means.push_back(static_cast<double>(arrivals) /
                      (kInputs * static_cast<double>(kBatchSlots)));
    }
    expect_batch_mean_near(
        means, c.load,
        "load " + std::to_string(c.load) + " burst " + std::to_string(c.mean_burst));
  }
}

TEST(SlotTraffic, BurstyRunsAreLong) {
  UniformDest dests(2);
  auto t = SlotTraffic::bursty(1, 0.5, 16.0, &dests, Rng(15));
  // Measure mean run length of consecutive arrival slots on one input.
  std::uint64_t runs = 0, busy = 0;
  bool prev = false;
  for (Cycle s = 0; s < 200000; ++s) {
    const bool now = !t.step().empty();
    busy += now;
    runs += (now && !prev);
    prev = now;
  }
  ASSERT_GT(runs, 0u);
  EXPECT_NEAR(static_cast<double>(busy) / runs, 16.0, 2.0);
}

// The per-input loop SlotTraffic::step() ran when it returned one optional
// arrival per input: the same state machines and the same draws, in the
// same order, copied here so the arrival list can be checked against it.
class PerInputReference {
 public:
  enum class Mode { kBernoulli, kGeometric, kPareto };

  PerInputReference(unsigned n, double load, double mean_burst, double shape, Mode mode,
                    DestPattern* dests, Rng rng)
      : n_(n), load_(load), mode_(mode), dests_(dests), rng_(rng), burst_(n), pareto_(n),
        slot_(n) {
    p_stop_ = 1.0 / mean_burst;
    p_start_ = load / (load + mean_burst * (1.0 - load));
    if (mode_ == Mode::kPareto) {
      shape_ = shape;
      xm_ = mean_burst * (shape - 1.0) / shape;
      const double mean_gap = load >= 1.0 ? 0.0 : mean_burst * (1.0 - load) / load;
      p_gap_ = 1.0 / (1.0 + mean_gap);
      for (Pareto& st : pareto_) st.gap_left = static_cast<Cycle>(rng_.next_geometric(p_gap_));
    }
  }

  /// Destination of input i's arrival this slot, if any.
  const std::vector<std::optional<unsigned>>& step() {
    for (unsigned i = 0; i < n_; ++i) {
      slot_[i].reset();
      if (mode_ == Mode::kBernoulli) {
        if (rng_.next_bool(load_)) slot_[i] = dests_->pick(i, rng_);
        continue;
      }
      if (mode_ == Mode::kPareto) {
        Pareto& st = pareto_[i];
        if (st.gap_left > 0) {
          --st.gap_left;
          continue;
        }
        if (st.burst_left == 0) {
          st.burst_left = pareto_len();
          st.dest = dests_->pick(i, rng_);
        }
        slot_[i] = st.dest;
        if (--st.burst_left == 0) st.gap_left = static_cast<Cycle>(rng_.next_geometric(p_gap_));
        continue;
      }
      Burst& b = burst_[i];
      if (!b.in_burst && rng_.next_bool(p_start_)) {
        b.in_burst = true;
        b.dest = dests_->pick(i, rng_);
      }
      if (b.in_burst) {
        slot_[i] = b.dest;
        if (rng_.next_bool(p_stop_)) b.in_burst = false;
      }
    }
    return slot_;
  }

 private:
  struct Burst {
    bool in_burst = false;
    unsigned dest = 0;
  };
  struct Pareto {
    Cycle gap_left = 0;
    std::uint64_t burst_left = 0;
    unsigned dest = 0;
  };

  std::uint64_t pareto_len() {
    constexpr std::uint64_t kMaxBurst = 1u << 16;
    const double len = xm_ * std::pow(1.0 - rng_.next_double(), -1.0 / shape_);
    if (!(len >= 1.0)) return 1;
    if (len >= static_cast<double>(kMaxBurst)) return kMaxBurst;
    return static_cast<std::uint64_t>(std::ceil(len));
  }

  unsigned n_;
  double load_;
  Mode mode_;
  DestPattern* dests_;
  Rng rng_;
  double p_start_ = 0, p_stop_ = 0, xm_ = 0, shape_ = 0, p_gap_ = 0;
  std::vector<Burst> burst_;
  std::vector<Pareto> pareto_;
  std::vector<std::optional<unsigned>> slot_;
};

/// True iff `list` is exactly the arriving inputs of `per_input`, in
/// ascending input order, with their destinations.
bool same_arrivals(const std::vector<std::optional<unsigned>>& per_input,
                   const std::vector<SlotArrivals::Entry>& list) {
  std::size_t k = 0;
  for (unsigned i = 0; i < per_input.size(); ++i) {
    if (!per_input[i]) continue;
    if (k == list.size() || list[k].input != i || list[k].dest != *per_input[i]) return false;
    ++k;
  }
  return k == list.size();
}

TEST(SlotTraffic, ArrivalListMatchesPerInputDraws) {
  using Mode = PerInputReference::Mode;
  const double load = 0.6, mean_burst = 8.0, shape = 1.5;
  const Cycle slots = 20000;
  for (unsigned n : {1u, 16u, 72u}) {
    for (Mode mode : {Mode::kBernoulli, Mode::kGeometric, Mode::kPareto}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " mode=" + std::to_string(static_cast<int>(mode)));
      UniformDest ref_dests(n), dests(n);
      const Rng rng(500 + n);
      PerInputReference ref(n, load, mean_burst, shape, mode, &ref_dests, rng);
      SlotTraffic traffic =
          mode == Mode::kBernoulli   ? SlotTraffic(n, load, &dests, rng)
          : mode == Mode::kGeometric ? SlotTraffic::bursty(n, load, mean_burst, &dests, rng)
                                     : SlotTraffic::bursty_pareto(n, load, mean_burst, shape,
                                                                  &dests, rng);
      std::uint64_t total = 0;
      bool mutants_checked = false;
      for (Cycle s = 0; s < slots; ++s) {
        const auto& want = ref.step();
        const SlotArrivals& got = traffic.step();
        EXPECT_EQ(got.ports(), n);
        const std::vector<SlotArrivals::Entry> list(got.begin(), got.end());
        total += list.size();
        ASSERT_TRUE(same_arrivals(want, list)) << "slot " << s;
        // The comparison itself must see a lost entry and a swapped pair.
        if (!mutants_checked && list.size() >= 2) {
          std::vector<SlotArrivals::Entry> dropped = list;
          dropped.erase(dropped.begin() + 1);
          EXPECT_FALSE(same_arrivals(want, dropped));
          std::vector<SlotArrivals::Entry> swapped = list;
          std::swap(swapped[0], swapped[1]);
          EXPECT_FALSE(same_arrivals(want, swapped));
          mutants_checked = true;
        }
      }
      EXPECT_EQ(traffic.arrivals_so_far(), total);
      EXPECT_GT(total, slots * n / 2);
      if (n > 1) {
        EXPECT_TRUE(mutants_checked);
      }
    }
  }
}

TEST(SlotArrivalsDeath, OutOfRangeUnorderedAndPastEndAbort) {
  SlotArrivals a(4);
  EXPECT_DEATH(a.add(4, 0), "arrival input out of range");
  a.add(2, 1);
  EXPECT_DEATH(a.add(2, 3), "strictly ascending");
  EXPECT_DEATH(a.add(1, 3), "strictly ascending");
  EXPECT_DEATH((void)a[1], "arrival index past the list");
  a.clear();
  a.add(1, 3);
  EXPECT_EQ(a.size(), 1u);
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

/// Take every pending arrival into `out`.
void drain(traffic::Arrivals& a, std::vector<Draw>& out) {
  for (; !a.empty(); a.pop())
    out.push_back(Draw{a.front().created, a.front().dest, a.front().seq});
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
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.pending(), 0u);
}

// The pending arrivals are replayed from a trailing copy of the stream, not
// stored: whatever the transport takes, and whenever, must equal a queue of
// the generator's own draws. Every fabric destination kind under both self
// rules; rates from sparse to every cycle; pops at random cycles, long
// skipped stretches, backlogs left to grow and then emptied and refilled, so
// both the head's snapshot (an arrival finds nothing pending) and its replay
// (a pop leaves arrivals pending) run many times.
TEST(Arrivals, ReplayCursorMatchesQueuedDraws) {
  using traffic::GeneratorSpec;
  using Pending = traffic::Arrivals::Pending;
  constexpr unsigned kNodes = 16;
  std::uint64_t snapshots = 0, replays = 0;
  for (const char* text : {"uniform", "permutation", "hotspot:0.3", "hotsenders:0.25,0.95",
                           "incast:4"}) {
    for (const SelfRule self : {SelfRule::kAllowed, SelfRule::kExcluded}) {
      for (const unsigned src : {0u, 3u, 7u}) {
        for (const double rate : {0.02, 0.3, 1.0}) {
          SCOPED_TRACE(std::string(text) + (self == SelfRule::kAllowed ? " self" : " noself") +
                       " src " + std::to_string(src) + " rate " + std::to_string(rate));
          Rng build(src + 1);
          const auto dests = GeneratorSpec::parse(text).make_dest(kNodes, build, self);
          traffic::Arrivals a = make_arrivals(dests.get(), src, rate, 1000 + src);
          Rng sched(77 + src);
          std::deque<Pending> queued;
          std::uint64_t seq = 0;
          a.prime(0);  // What the first step() does; lets the loop read the draw first.
          for (Cycle t = 0; t < 4000;) {
            if (t == a.next_arrival) {
              if (queued.empty()) ++snapshots;
              queued.push_back(Pending{a.next_dest, seq++, t});
            }
            a.step(t);
            // Phases of 250 cycles: drain at every visit, take nothing, or
            // take a random few.
            const std::uint64_t phase = (t / 250) % 3;
            std::uint64_t take = phase == 0   ? queued.size()
                                 : phase == 1 ? 0
                                              : sched.next_below(3);
            for (; take > 0 && !queued.empty(); --take) {
              ASSERT_FALSE(a.empty());
              const Pending& got = a.front();
              const Pending& want = queued.front();
              ASSERT_EQ(got.dest, want.dest);
              ASSERT_EQ(got.seq, want.seq);
              ASSERT_EQ(got.created, want.created);
              a.pop();
              queued.pop_front();
              if (!queued.empty()) ++replays;
            }
            ASSERT_EQ(a.pending(), queued.size());
            ASSERT_EQ(a.empty(), queued.empty());
            ASSERT_EQ(a.generated, seq);
            // Visit every cycle, or skip straight to the next arrival (or a
            // random cycle short of it) as an idle fabric task would.
            const Cycle stride = static_cast<Cycle>(sched.next_below(40));
            t = sched.next_bool(0.5) ? t + 1 : std::min(a.next_arrival, t + 1 + stride);
          }
        }
      }
    }
  }
  EXPECT_GT(snapshots, 1000u);
  EXPECT_GT(replays, 10000u);
}

// Offered load of the fabric arrival process, for every destination kind
// the fabrics accept and both self rules: the arrivals per cycle at an
// endpoint are within four standard errors of `per_cycle`, estimated from 20
// batch means. An arrival must not cost the cycle after it a trial: a
// generator that re-primed from t + 2 would offer p / (1 + p), 0.31 at 0.45.
TEST(Arrivals, OfferedLoadMatchesPerCycleRate) {
  using traffic::GeneratorSpec;
  constexpr unsigned kNodes = 16, kSrc = 3;
  constexpr Cycle kBatchCycles = 20000;
  std::uint64_t seed = 300;
  for (const char* text : {"uniform", "permutation", "hotspot:0.3", "hotsenders:0.25",
                           "incast:4"}) {
    for (const SelfRule self : {SelfRule::kAllowed, SelfRule::kExcluded}) {
      for (const double rate : {0.05, 0.2, 0.45}) {
        SCOPED_TRACE(std::string(text) + (self == SelfRule::kAllowed ? " self" : " noself") +
                     " rate " + std::to_string(rate));
        Rng build(++seed);
        const auto dests = GeneratorSpec::parse(text).make_dest(kNodes, build, self);
        traffic::Arrivals a = make_arrivals(dests.get(), kSrc, rate, seed);
        std::vector<double> means;
        Cycle t = 0;
        for (unsigned b = 0; b < kBatches; ++b) {
          const std::uint64_t before = a.generated;
          for (const Cycle end = t + kBatchCycles; t < end; ++t) {
            a.step(t);
            while (!a.empty()) a.pop();
          }
          means.push_back(static_cast<double>(a.generated - before) / kBatchCycles);
        }
        expect_batch_mean_near(means, rate, "offered load");
      }
    }
  }
}

/// The destinations of `draws` consecutive arrivals at endpoint `src`,
/// counted per destination (one arrival per cycle).
std::vector<std::uint64_t> dest_counts(DestPattern* dests, unsigned n, unsigned src,
                                       std::uint64_t draws, std::uint64_t seed) {
  traffic::Arrivals a = make_arrivals(dests, src, 1.0, seed);
  std::vector<std::uint64_t> count(n, 0);
  for (Cycle t = 0; a.generated < draws; ++t) {
    a.step(t);
    for (; !a.empty(); a.pop()) ++count.at(a.front().dest);
  }
  return count;
}

// The destination marginals of the fabric patterns, drawn through Arrivals
// under both self rules: hotspot sends its hot fraction to the hot node (a
// miss goes uniform, the hot node included unless it is excluded), the
// hot senders are a `frac` share of the nodes and send only to the hot
// node, incast sources below fan_in reach only the sink, and the
// permutation is a bijection -- a derangement when self is excluded.
TEST(Arrivals, DestinationMarginalsMatchTheirPattern) {
  using traffic::GeneratorSpec;
  constexpr unsigned kNodes = 16;
  constexpr std::uint64_t kDraws = 100000;
  for (const SelfRule self : {SelfRule::kAllowed, SelfRule::kExcluded}) {
    const bool excluded = self == SelfRule::kExcluded;
    SCOPED_TRACE(excluded ? "noself" : "self");
    Rng build(11);

    const auto hotspot = GeneratorSpec::parse("hotspot:0.3").make_dest(kNodes, build, self);
    for (unsigned src : {0u, 5u}) {
      const auto count = dest_counts(hotspot.get(), kNodes, src, kDraws, 40 + src);
      const unsigned others = excluded ? kNodes - 1 : kNodes;
      const double p = excluded && src == 0 ? 0.0 : 0.3 + 0.7 / others;
      const double got = static_cast<double>(count[0]) / kDraws;
      EXPECT_LE(std::abs(got - p), 4.0 * std::sqrt(p * (1 - p) / kDraws) + 1e-12)
          << "src " << src << ": hot share " << got << ", expected " << p;
    }

    const auto senders = GeneratorSpec::parse("hotsenders:0.25").make_dest(kNodes, build, self);
    unsigned hot_senders = 0;
    for (unsigned src = 0; src < kNodes; ++src) {
      const auto count = dest_counts(senders.get(), kNodes, src, 2000, 60 + src);
      const bool hot = count[0] == 2000;
      hot_senders += hot;
      EXPECT_TRUE(hot || count[0] == 0) << "src " << src << " mixes hot and background";
    }
    EXPECT_EQ(hot_senders, kNodes / 4);

    const auto incast = GeneratorSpec::parse("incast:4").make_dest(kNodes, build, self);
    for (unsigned src = 0; src < kNodes; ++src) {
      const auto count = dest_counts(incast.get(), kNodes, src, 2000, 80 + src);
      const bool to_sink = src < 4 && !(excluded && src == 0);
      EXPECT_EQ(count[0], to_sink ? 2000u : 0u) << "src " << src;
    }

    const auto perm = GeneratorSpec::parse("permutation").make_dest(kNodes, build, self);
    std::vector<bool> hit(kNodes, false);
    unsigned fixed_points = 0;
    for (unsigned src = 0; src < kNodes; ++src) {
      const auto count = dest_counts(perm.get(), kNodes, src, 200, 100 + src);
      const auto to = static_cast<unsigned>(
          std::find(count.begin(), count.end(), 200u) - count.begin());
      ASSERT_LT(to, kNodes) << "src " << src << " has more than one destination";
      EXPECT_FALSE(hit[to]) << "two sources send to " << to;
      hit[to] = true;
      fixed_points += to == src;
    }
    if (excluded) {
      EXPECT_EQ(fixed_points, 0u);
    }
  }
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
