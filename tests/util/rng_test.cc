#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "obs/metrics.h"

namespace microrec {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU32() == b.NextU32()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU32() == b.NextU32()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(RngTest, SplitYieldsIndependentStream) {
  Rng parent(7);
  Rng child = parent.Split();
  // The child does not replay the parent's sequence.
  Rng parent_copy(7);
  (void)parent_copy.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (child.NextU32() == parent.NextU32()) ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformU32RespectsBound) {
  Rng rng(5);
  for (uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformU32(bound), bound);
  }
}

TEST(RngTest, UniformU32IsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformU32(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  constexpr int kDraws = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / kDraws;
  double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(23);
  for (double shape : {0.5, 1.0, 3.0, 10.0}) {
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / kDraws, shape, shape * 0.1) << "shape=" << shape;
  }
}

TEST(RngTest, BetaInUnitIntervalWithCorrectMean) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Beta(2.0, 3.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 2.0 / 5.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLargeLambda) {
  Rng rng(37);
  for (double lambda : {0.5, 4.0, 50.0}) {
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += rng.Poisson(lambda);
    EXPECT_NEAR(sum / kDraws, lambda, std::max(0.1, lambda * 0.05));
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  int counts[3] = {};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.6, 0.015);
}

TEST(RngTest, CategoricalSkipsZeroWeights) {
  Rng rng(43);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(weights), 1u);
}

// Degenerate mass (zero / negative / NaN / infinite total) must not abort or
// bias silently — release builds compile the old assert away. The contract:
// deterministic index 0, the per-Rng degenerate_draws counter bumps, and the
// global rng.degenerate_draws metric bumps, so Gibbs loops can surface the
// row as kInternal (topic::GuardDegenerateDraws).
TEST(RngTest, CategoricalDegenerateMassReturnsZeroAndCounts) {
  Rng rng(53);
  EXPECT_EQ(rng.degenerate_draws(), 0u);
  // Each snapshot is held in a local: FindCounter points into it.
  const obs::MetricsSnapshot snapshot_before =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::CounterSnapshot* before =
      snapshot_before.FindCounter("rng.degenerate_draws");
  const uint64_t global_before = before == nullptr ? 0 : before->value;

  std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_EQ(rng.Categorical(zeros), 0u);
  EXPECT_EQ(rng.degenerate_draws(), 1u);

  std::vector<double> negative = {1.0, -5.0};
  EXPECT_EQ(rng.Categorical(negative), 0u);
  std::vector<double> nan_total = {1.0, std::nan("")};
  EXPECT_EQ(rng.Categorical(nan_total), 0u);
  std::vector<double> inf_total = {1.0,
                                   std::numeric_limits<double>::infinity()};
  EXPECT_EQ(rng.Categorical(inf_total), 0u);
  EXPECT_EQ(rng.degenerate_draws(), 4u);

  const obs::MetricsSnapshot snapshot_after =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::CounterSnapshot* after =
      snapshot_after.FindCounter("rng.degenerate_draws");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, global_before + 4);
}

TEST(RngTest, DegenerateFallbackKeepsDrawStreamAligned) {
  // The fallback consumes exactly one uniform — the same as a healthy draw —
  // so a degenerate row does not shift every subsequent sample in the sweep.
  Rng healthy(67);
  Rng degenerate(67);
  std::vector<double> good = {2.0, 1.0};
  std::vector<double> bad = {0.0, 0.0};
  healthy.Categorical(good);
  degenerate.Categorical(bad);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(healthy.NextU64(), degenerate.NextU64());
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(47);
  for (double alpha : {0.1, 1.0, 10.0}) {
    std::vector<double> draw = rng.DirichletSymmetric(alpha, 8);
    double sum = std::accumulate(draw.begin(), draw.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double v : draw) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, DirichletSparseForSmallAlpha) {
  Rng rng(53);
  // With alpha << 1 most mass concentrates on few coordinates.
  double max_sum = 0.0;
  constexpr int kDraws = 200;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<double> draw = rng.DirichletSymmetric(0.05, 20);
    max_sum += *std::max_element(draw.begin(), draw.end());
  }
  EXPECT_GT(max_sum / kDraws, 0.5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_FALSE(std::equal(items.begin(), items.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(items, shuffled);
}

TEST(RngTest, ShuffleWorksOnVectorBool) {
  Rng rng(61);
  std::vector<bool> items(50, false);
  for (int i = 0; i < 10; ++i) items[i] = true;
  rng.Shuffle(items);
  EXPECT_EQ(std::count(items.begin(), items.end(), true), 10);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(67);
  for (size_t k : {0ul, 1ul, 5ul, 50ul, 100ul}) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngStreamRegistryTest, ReservedStreamIdsAreUnique) {
  const std::vector<streams::NamedStream>& reserved =
      streams::ReservedStreams();
  ASSERT_FALSE(reserved.empty());
  std::set<uint64_t> ids;
  for (const streams::NamedStream& s : reserved) {
    EXPECT_TRUE(ids.insert(s.id).second)
        << "stream id " << s.id << " (" << s.name
        << ") is registered twice";
  }
}

TEST(RngStreamRegistryTest, RegistryListsEveryKnownScalarStream) {
  std::set<uint64_t> ids;
  for (const streams::NamedStream& s : streams::ReservedStreams()) {
    ids.insert(s.id);
  }
  // A constant that exists in the header but is missing here means the
  // registry fell out of date — add it to ReservedStreams().
  EXPECT_TRUE(ids.count(streams::kDefault));
  EXPECT_TRUE(ids.count(streams::kExperimentSplits));
  EXPECT_TRUE(ids.count(streams::kTopicEngine));
  EXPECT_TRUE(ids.count(streams::kRetryJitter));
  EXPECT_TRUE(ids.count(streams::kTieBreak));
  EXPECT_TRUE(ids.count(streams::kRandomBaseline));
  EXPECT_TRUE(ids.count(streams::kLoadSchedule));
  EXPECT_EQ(ids.size(), streams::ReservedStreams().size());
}

TEST(RngStreamRegistryTest, GibbsShardBlockDisjointFromScalarStreams) {
  for (const streams::NamedStream& s : streams::ReservedStreams()) {
    EXPECT_FALSE(streams::IsGibbsShardStream(s.id))
        << s.name << " collides with the Gibbs shard block";
  }
}

TEST(RngStreamRegistryTest, GibbsShardStreamsStayInBlockAndAreUnique) {
  // Distinct (shard, iteration) pairs within the block's modulus map to
  // distinct streams, and every mapped id stays inside the block — even
  // for shard / iteration values beyond the modulus.
  std::set<uint64_t> seen;
  for (uint64_t iter : {uint64_t{0}, uint64_t{1}, uint64_t{999}}) {
    for (uint64_t shard = 0; shard < 64; ++shard) {
      uint64_t id = streams::GibbsShardStream(shard, iter);
      EXPECT_TRUE(streams::IsGibbsShardStream(id));
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_TRUE(streams::IsGibbsShardStream(streams::GibbsShardStream(
      streams::kGibbsShardSlots + 3, streams::kGibbsShardIterations + 7)));
}

TEST(RngStreamRegistryTest, RequestTieBlockDisjointFromEverythingElse) {
  for (const streams::NamedStream& s : streams::ReservedStreams()) {
    EXPECT_FALSE(streams::IsRequestTieStream(s.id))
        << s.name << " collides with the request tie-break block";
  }
  // The Gibbs shard block ends below the request-tie base.
  EXPECT_FALSE(streams::IsRequestTieStream(streams::GibbsShardStream(
      streams::kGibbsShardSlots - 1, streams::kGibbsShardIterations - 1)));
  EXPECT_FALSE(streams::IsGibbsShardStream(streams::kRequestTieBase));
}

TEST(RngStreamRegistryTest, RequestTieStreamsStayInBlockAndWrap) {
  EXPECT_TRUE(streams::IsRequestTieStream(streams::RequestTieStream(0)));
  EXPECT_TRUE(streams::IsRequestTieStream(streams::RequestTieStream(1)));
  EXPECT_TRUE(streams::IsRequestTieStream(
      streams::RequestTieStream(~uint64_t{0})));
  EXPECT_NE(streams::RequestTieStream(1), streams::RequestTieStream(2));
  // Ids reuse streams modulo the slot count.
  EXPECT_EQ(streams::RequestTieStream(3),
            streams::RequestTieStream(3 + streams::kRequestTieSlots));
}

TEST(RngStreamRegistryTest, RequestTieStreamsProduceDistinctDraws) {
  Rng a(42, streams::RequestTieStream(1));
  Rng b(42, streams::RequestTieStream(2));
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) differ = a.NextU32() != b.NextU32();
  EXPECT_TRUE(differ);
}

TEST(RngStreamRegistryTest, DistinctShardStreamsProduceDistinctDraws) {
  Rng a(42, streams::GibbsShardStream(0, 0));
  Rng b(42, streams::GibbsShardStream(1, 0));
  Rng c(42, streams::GibbsShardStream(0, 1));
  bool ab = false, ac = false;
  for (int i = 0; i < 16; ++i) {
    uint64_t va = a.NextU64(), vb = b.NextU64(), vc = c.NextU64();
    ab |= va != vb;
    ac |= va != vc;
  }
  EXPECT_TRUE(ab);
  EXPECT_TRUE(ac);
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  Rng rng(71);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    for (size_t v : rng.SampleWithoutReplacement(10, 3)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws * 3 / 10, kDraws * 3 / 10 * 0.1);
  }
}

}  // namespace
}  // namespace microrec
