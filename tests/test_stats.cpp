// Tests of the statistics substrate: histograms, running moments, latency
// trackers, flow accounting, table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <vector>

#include "stats/hdr_histogram.hpp"
#include "stats/stats.hpp"
#include "stats/table.hpp"

namespace pmsb {
namespace {

TEST(HdrHistogram, ExactBelowSubBucketThreshold) {
  HdrHistogram h(7);  // Values < 128 are one bucket each.
  for (std::uint64_t v = 0; v < 128; ++v) h.add(v);
  EXPECT_EQ(h.samples(), 128u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 127u);
  for (std::uint64_t v = 0; v < 128; ++v) {
    EXPECT_EQ(h.index_of(v), v);
    EXPECT_EQ(h.bucket_low(v), v);
    EXPECT_EQ(h.bucket_high(v), v);
  }
  // With one sample per value, every percentile is exact.
  EXPECT_EQ(h.percentile(0.5), 63u);
  EXPECT_EQ(h.percentile(1.0), 127u);
}

TEST(HdrHistogram, BucketsAreContiguousAcrossOctaves) {
  const HdrHistogram h(4);  // Small precision: quick full sweep.
  // Every bucket's range starts where the previous one ended.
  for (std::size_t i = 0; i + 1 < h.bucket_count(); ++i) {
    ASSERT_LE(h.bucket_low(i), h.bucket_high(i)) << "bucket " << i;
    ASSERT_EQ(h.bucket_high(i) + 1, h.bucket_low(i + 1)) << "bucket " << i;
  }
  // index_of inverts the bucket bounds over a wide sample of magnitudes.
  for (std::uint64_t v = 1; v < (1ull << 62); v = v * 3 + 1) {
    const std::size_t i = h.index_of(v);
    EXPECT_GE(v, h.bucket_low(i));
    EXPECT_LE(v, h.bucket_high(i));
  }
  EXPECT_EQ(h.index_of(~0ull), h.bucket_count() - 1);  // Top of the range fits.
}

TEST(HdrHistogram, SumMinMaxMeanAreExact) {
  HdrHistogram h;
  h.add(1000000);  // Bucketed -- but the sum must stay exact.
  h.add(3, 2);     // Weighted add.
  EXPECT_EQ(h.samples(), 3u);
  EXPECT_EQ(h.sum(), 1000006u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000006.0 / 3.0);
}

TEST(HdrHistogram, PercentilesTrackSortedReferenceWithinRelativeError) {
  HdrHistogram h(7);
  std::vector<std::uint64_t> ref;
  std::mt19937_64 rng(7);  // Heavy-tailed sample: latencies over 5 decades.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = 1 + (rng() % (1ull << (4 + i % 16)));
    ref.push_back(v);
    h.add(v);
  }
  std::sort(ref.begin(), ref.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ref.size()))) - 1;
    const double exact = static_cast<double>(ref[idx]);
    const double got = static_cast<double>(h.percentile(q));
    // The reported value is the containing bucket's upper bound: never
    // below the exact answer, and above by at most the relative error.
    EXPECT_GE(got, exact);
    EXPECT_LE(got, exact * (1.0 + h.relative_error()) + 1.0) << "q=" << q;
  }
  EXPECT_EQ(h.percentile(0.0), h.min());
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(HdrHistogram, MergeMatchesCombinedRecording) {
  HdrHistogram a(7), b(7), both(7);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng() % 100000;
    ((i % 2) ? a : b).add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.samples(), both.samples());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(a.percentile(q), both.percentile(q)) << "q=" << q;
}

TEST(HdrHistogram, ClearEmptiesEverything) {
  HdrHistogram h;
  h.add(42);
  h.clear();
  EXPECT_EQ(h.samples(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);
  h.add(7);  // Usable after clear.
  EXPECT_EQ(h.p50(), 7u);
}

// Counts are stored only up to the highest bucket recorded, growing
// geometrically; the logical range and every bucket's meaning stay fixed.
TEST(HdrHistogram, StorageGrowsOnlyToLargestRecordedBucket) {
  HdrHistogram h(7);
  EXPECT_EQ(h.stored_buckets(), 0u);
  EXPECT_EQ(h.bucket_count(), 3776u);  // (64 - 7) * 64 + 128.
  EXPECT_EQ(h.count_at(0), 0u);
  EXPECT_EQ(h.count_at(h.bucket_count() - 1), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  std::size_t grows = 0;
  std::size_t last = 0;
  for (std::uint64_t v = 1; v < 5000; v += 1 + v / 16) {
    h.add(v);
    const std::size_t top = h.index_of(v);
    ASSERT_GT(h.stored_buckets(), top);
    ASSERT_LE(h.stored_buckets(), 4 * (top + 1)) << "storage past 4x the largest bucket";
    if (h.stored_buckets() != last) ++grows;
    last = h.stored_buckets();
  }
  EXPECT_LT(last, h.bucket_count() / 2);  // 5000 cycles is far from 2^64.
  EXPECT_LE(grows, static_cast<std::size_t>(std::bit_width(last)))
      << "growth must be geometric";
  for (std::size_t i = last; i < h.bucket_count(); ++i) ASSERT_EQ(h.count_at(i), 0u);
  EXPECT_EQ(h.bucket_count(), 3776u);
  h.add(~std::uint64_t{0});  // The top of the range is still recordable.
  EXPECT_EQ(h.stored_buckets(), h.bucket_count());
  EXPECT_EQ(h.count_at(h.bucket_count() - 1), 1u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
}

TEST(HdrHistogram, MergeOfUnequalStorageMatchesFullySizedReference) {
  HdrHistogram small(7), large(7), fresh(7), both(7);
  std::vector<std::uint64_t> dense(small.bucket_count(), 0);  // Every bucket stored.
  std::mt19937_64 rng(5);
  for (int i = 0; i < 4000; ++i) {
    const bool in_small = i % 3 != 0;
    const std::uint64_t v = in_small ? rng() % 90 : 50 + rng() % 2000000;
    (in_small ? small : large).add(v);
    both.add(v);
    ++dense[small.index_of(v)];
  }
  ASSERT_LT(small.stored_buckets(), large.stored_buckets());
  HdrHistogram up = small;  // Grows to take the larger storage.
  up.merge(large);
  HdrHistogram down = large;
  down.merge(small);
  fresh.merge(large);  // A histogram with nothing stored.
  fresh.merge(small);
  HdrHistogram cleared = large;
  cleared.clear();
  up.merge(cleared);  // A cleared donor adds nothing.
  for (const HdrHistogram* h : {&up, &down, &fresh}) {
    for (std::size_t i = 0; i < dense.size(); ++i) ASSERT_EQ(h->count_at(i), dense[i]) << i;
    EXPECT_EQ(h->samples(), both.samples());
    EXPECT_EQ(h->sum(), both.sum());
    EXPECT_EQ(h->min(), both.min());
    EXPECT_EQ(h->max(), both.max());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
      EXPECT_EQ(h->percentile(q), both.percentile(q)) << "q=" << q;
  }
}

TEST(HdrHistogram, ClearKeepsStorageAndZeroesEveryBucket) {
  HdrHistogram h(7);
  for (std::uint64_t v = 0; v < 3000; v += 7) h.add(v);
  const std::size_t stored = h.stored_buckets();
  h.clear();
  EXPECT_EQ(h.stored_buckets(), stored);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) ASSERT_EQ(h.count_at(i), 0u) << i;
  EXPECT_EQ(h.max(), 0u);
  h.add(5);
  EXPECT_EQ(h.count_at(5), 1u);
  EXPECT_EQ(h.p99(), 5u);
}

TEST(HdrHistogramDeath, RejectsBadPrecisionAndMixedMerge) {
  EXPECT_DEATH(HdrHistogram(0), "precision");
  EXPECT_DEATH(HdrHistogram(21), "precision");
  HdrHistogram a(7), b(8);
  EXPECT_DEATH(a.merge(b), "precision");
}

TEST(LatencyStats, HdrBackedPercentilesAndMerge) {
  LatencyStats x(0), y(0);
  for (Cycle v = 1; v <= 900; ++v) x.record(0, v);
  for (Cycle v = 901; v <= 1000; ++v) y.record(0, v);
  x.merge(y);
  EXPECT_EQ(x.samples(), 1000u);
  EXPECT_EQ(x.histogram().samples(), 1000u);
  const double err = x.histogram().relative_error();
  EXPECT_NEAR(static_cast<double>(x.p50()), 500.0, 500.0 * err + 1.0);
  EXPECT_NEAR(static_cast<double>(x.p90()), 900.0, 900.0 * err + 1.0);
  EXPECT_NEAR(static_cast<double>(x.p99()), 990.0, 990.0 * err + 1.0);
  EXPECT_NEAR(static_cast<double>(x.p999()), 999.0, 999.0 * err + 1.0);
  EXPECT_EQ(x.max(), 1000u);
}

TEST(RunningStats, MeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571, 0.01);  // Sample variance.
  EXPECT_GT(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(LatencyStats, WarmupFiltersEarlyInjections) {
  LatencyStats ls(100);
  ls.record(50, 60);    // Injected during warmup: ignored.
  ls.record(150, 170);  // Counted.
  EXPECT_EQ(ls.samples(), 1u);
  EXPECT_DOUBLE_EQ(ls.mean(), 20.0);
}

TEST(LatencyStatsDeath, NegativeLatency) {
  LatencyStats ls(0);
  EXPECT_DEATH(ls.record(10, 5), "negative");
}

TEST(FlowCounts, LossRatioAndOutstanding) {
  FlowCounts c;
  c.injected = 1000;
  c.delivered = 900;
  c.dropped = 50;
  EXPECT_DOUBLE_EQ(c.loss_ratio(), 0.05);
  EXPECT_EQ(c.outstanding(), 50u);
  EXPECT_DOUBLE_EQ(FlowCounts{}.loss_ratio(), 0.0);
}

TEST(Throughput, Normalized) {
  EXPECT_DOUBLE_EQ(normalized_throughput(800, 8, 100), 1.0);
  EXPECT_DOUBLE_EQ(normalized_throughput(400, 8, 100), 0.5);
  EXPECT_DOUBLE_EQ(normalized_throughput(1, 0, 100), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"load", "throughput"});
  t.add_row({"0.5", "0.499"});
  t.add_row({"1.0", "0.586"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cell(1, 1), "0.586");
  // Smoke-render to a temp file and check content survived.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print(f);
  t.print_csv(f);
  std::rewind(f);
  std::string all(1 << 12, '\0');
  const std::size_t got = std::fread(all.data(), 1, all.size(), f);
  all.resize(got);
  EXPECT_NE(all.find("0.586"), std::string::npos);
  EXPECT_NE(all.find("load,throughput"), std::string::npos);
  std::fclose(f);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::sci(0.00123, 1), "1.2e-03");
}

TEST(TableDeath, RowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only one"}), "width");
}

}  // namespace
}  // namespace pmsb
