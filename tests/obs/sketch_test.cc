// obs::Histogram as a quantile sketch: behaviour at the edges, merging,
// concurrency, and the 1% relative-error bound against exact order
// statistics at every sample count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace microrec::obs {
namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};

/// The order statistic of rank ceil(q * n) in `sorted` — the rank
/// Histogram::Quantile reads.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const double rank = std::max(
      1.0, std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[static_cast<size_t>(rank) - 1];
}

/// Every quantile of `histogram` within 1% of the exact order statistic of
/// `values` (plus floating-point rounding at a bucket edge).
void ExpectWithinBound(const Histogram& histogram, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  ASSERT_EQ(histogram.count(), values.size());
  for (double q : kQuantiles) {
    const double exact = ExactQuantile(values, q);
    const double estimate = histogram.Quantile(q);
    EXPECT_LE(std::abs(estimate - exact),
              Histogram::kRelativeAccuracy * exact * (1.0 + 1e-9))
        << "q=" << q << " exact=" << exact << " estimate=" << estimate
        << " n=" << values.size();
  }
}

/// Latency-like streams, in seconds.
double Uniform(Rng* rng) { return 1e-3 * (1.0 - rng->UniformDouble()); }
double Exponential(Rng* rng) {
  return 1e-4 * -std::log(1.0 - rng->UniformDouble());
}
/// Pareto with shape 1.2: the top 0.1% reaches ~300x the median.
double HeavyTailed(Rng* rng) {
  return 1e-5 / std::pow(1.0 - rng->UniformDouble(), 1.0 / 1.2);
}

void CheckStreamAtEverySize(const std::function<double(Rng*)>& draw,
                            uint64_t seed) {
  for (size_t n : {size_t{1}, size_t{10}, size_t{4096}, size_t{4097},
                   size_t{100000}, size_t{1000000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(seed, n);
    Histogram histogram;
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(draw(&rng));
      histogram.Record(values.back());
    }
    ExpectWithinBound(histogram, std::move(values));
  }
}

TEST(SketchTest, EmptySketchIsWellDefined) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.0);
  HistogramSnapshot snap = histogram.Snapshot("empty");
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
}

TEST(SketchTest, QuantileBoundsClampToObservedRange) {
  Histogram histogram;
  histogram.Record(3.0);
  histogram.Record(7.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(-1.0), 3.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(2.0), 7.0);
  // Interior quantiles read a bucket's value, clamped to [min, max].
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_GE(histogram.Quantile(q), 3.0);
    EXPECT_LE(histogram.Quantile(q), 7.0);
  }
}

TEST(SketchTest, NonFiniteValuesIgnored) {
  Histogram histogram;
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  histogram.Record(std::numeric_limits<double>::infinity());
  histogram.Record(-std::numeric_limits<double>::infinity());
  histogram.Record(1.0);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 1.0);
}

TEST(SketchTest, ZeroAndOutOfRangeValuesStayInsideMinMax) {
  Histogram histogram;
  histogram.Record(0.0);
  histogram.Record(0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  histogram.Record(1e12);  // beyond the top bucket
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_GT(histogram.Quantile(0.99), 0.0);
  EXPECT_LE(histogram.Quantile(0.99), 1e12);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1e12);
}

TEST(SketchTest, MergeKeepsCountSumMinMax) {
  Histogram a, b;
  Rng rng(3, 4);
  double expect_sum = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.UniformDouble() * 10.0;
    expect_sum += v;
    (i % 2 == 0 ? a : b).Record(v);
  }
  const HistogramSnapshot sa = a.Snapshot("a");
  const HistogramSnapshot sb = b.Snapshot("b");
  a.Merge(b);
  const HistogramSnapshot merged = a.Snapshot("merged");
  EXPECT_EQ(merged.count, 3000u);
  EXPECT_NEAR(merged.sum, expect_sum, 1e-9);
  EXPECT_DOUBLE_EQ(merged.min, std::min(sa.min, sb.min));
  EXPECT_DOUBLE_EQ(merged.max, std::max(sa.max, sb.max));
}

TEST(SketchTest, MergeEqualsRecordingTheUnion) {
  Histogram parts[4];
  Histogram whole;
  Rng rng(5, 6);
  for (int i = 0; i < 20000; ++i) {
    const double v = Exponential(&rng);
    parts[i % 4].Record(v);
    whole.Record(v);
  }
  Histogram merged;
  for (const Histogram& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.BucketCounts(), whole.BucketCounts());
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-12);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(SketchTest, MergeEmptyIsIdentity) {
  Histogram a, empty;
  a.Record(1.0);
  a.Record(2.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 2.0);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.0), 1.0);
}

TEST(SketchTest, ConcurrentRecordEqualsSequential) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<double> values;
  Rng rng(9, 10);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    values.push_back(HeavyTailed(&rng));
  }
  Histogram sequential;
  for (double v : values) sequential.Record(v);

  Histogram shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads) {
        shared.Record(values[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(shared.BucketCounts(), sequential.BucketCounts());
  EXPECT_EQ(shared.count(), sequential.count());
  // Only the sum depends on the order of additions.
  EXPECT_NEAR(shared.sum(), sequential.sum(), 1e-9 * sequential.sum());
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(shared.Quantile(q), sequential.Quantile(q))
        << "q=" << q;
  }
}

TEST(SketchTest, ResetClearsEverything) {
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(static_cast<double>(i));
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  histogram.Record(4.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 4.0);
}

TEST(SketchTest, SnapshotCarriesQuantilesAndMetadata) {
  Histogram histogram;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i));
    histogram.Record(values.back());
  }
  HistogramSnapshot snap = histogram.Snapshot("test.latency");
  EXPECT_EQ(snap.name, "test.latency");
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
  EXPECT_DOUBLE_EQ(snap.p50, histogram.Quantile(0.5));
  EXPECT_DOUBLE_EQ(snap.p90, histogram.Quantile(0.9));
  EXPECT_DOUBLE_EQ(snap.p99, histogram.Quantile(0.99));
  EXPECT_DOUBLE_EQ(snap.p999, histogram.Quantile(0.999));
  ExpectWithinBound(histogram, values);
}

TEST(SketchAccuracyTest, UniformStreams) {
  CheckStreamAtEverySize(Uniform, 11);
}

TEST(SketchAccuracyTest, ExponentialStreams) {
  CheckStreamAtEverySize(Exponential, 12);
}

TEST(SketchAccuracyTest, HeavyTailedStreams) {
  CheckStreamAtEverySize(HeavyTailed, 13);
}

// Per-thread latency histograms merged into one report, each part with a
// single 130 ms stall among ~10 us requests (values in ms). At 1,024
// samples a part, the KLL sketch this type replaced read the merged p90 as
// 130 against a true 0.023.
TEST(SketchAccuracyTest, FourMergedPartsWithOutliers) {
  for (int per_part : {1024, 25000}) {
    SCOPED_TRACE("per_part=" + std::to_string(per_part));
    Histogram merged;
    std::vector<double> values;
    for (uint64_t part = 0; part < 4; ++part) {
      Histogram local;
      Rng rng(21, part);
      for (int i = 0; i < per_part; ++i) {
        values.push_back(0.01 * -std::log(1.0 - rng.UniformDouble()));
        local.Record(values.back());
      }
      values.push_back(130.0);
      local.Record(130.0);
      merged.Merge(local);
    }
    ExpectWithinBound(merged, std::move(values));
  }
}

// Past 4,096 samples the KLL sketch this type replaced compacted: on an
// exponential stream of 5,000 it read p99 at about twice its true value.
TEST(SketchAccuracyTest, ExponentialP99AtN5000) {
  Histogram histogram;
  std::vector<double> values;
  Rng rng(31, 1);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(-std::log(1.0 - rng.UniformDouble()));
    histogram.Record(values.back());
  }
  ExpectWithinBound(histogram, std::move(values));
}

// ... and at 100,000 samples its median was off by 12% in rank.
TEST(SketchAccuracyTest, UniformMedianAtN100000) {
  Histogram histogram;
  std::vector<double> values;
  Rng rng(32, 1);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(1.0 - rng.UniformDouble());
    histogram.Record(values.back());
  }
  ExpectWithinBound(histogram, std::move(values));
}

}  // namespace
}  // namespace microrec::obs
