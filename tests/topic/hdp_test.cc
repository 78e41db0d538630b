#include "topic/hdp.h"

#include <gtest/gtest.h>

#include <numeric>

#include "topic_test_util.h"

namespace microrec::topic {
namespace {

HdpConfig SmallConfig() {
  HdpConfig config;
  config.train_iterations = 120;
  return config;
}

TEST(HdpTest, TrainRejectsEmptyCorpus) {
  Hdp hdp(SmallConfig());
  DocSet docs;
  Rng rng(1);
  EXPECT_EQ(hdp.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(HdpTest, InfersTopicCountFromData) {
  Hdp hdp(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(hdp.Train(docs, &rng).ok());
  // Nonparametric: at least the two real themes; far fewer than max.
  EXPECT_GE(hdp.num_topics(), 2u);
  EXPECT_LT(hdp.num_topics(), 64u);
}

TEST(HdpTest, GlobalWeightsFormSubProbability) {
  Hdp hdp(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(3);
  ASSERT_TRUE(hdp.Train(docs, &rng).ok());
  double sum = 0.0;
  for (double b : hdp.global_weights()) {
    EXPECT_GE(b, 0.0);
    sum += b;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);  // remainder is reserved for unseen topics
  EXPECT_GT(sum, 0.1);
}

TEST(HdpTest, InferredDistributionIsProbability) {
  Hdp hdp(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(4);
  ASSERT_TRUE(hdp.Train(docs, &rng).ok());
  auto theta = hdp.InferDocument(AnimalQuery(docs), &rng);
  EXPECT_EQ(theta.size(), hdp.num_topics());
  EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 0.05);
}

TEST(HdpTest, RecoversTopicSeparation) {
  Hdp hdp(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(hdp.Train(docs, &rng).ok());
  ExpectTopicSeparation(hdp, docs, &rng);
}

TEST(HdpTest, MaxTopicsCapRespected) {
  HdpConfig config = SmallConfig();
  config.max_topics = 3;
  config.gamma = 100.0;  // aggressive topic creation pressure
  Hdp hdp(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(6);
  ASSERT_TRUE(hdp.Train(docs, &rng).ok());
  EXPECT_LE(hdp.num_topics(), 3u);
}

TEST(HdpTest, DeterministicGivenSeed) {
  DocSet docs = MakeTwoTopicCorpus();
  Hdp a(SmallConfig()), b(SmallConfig());
  Rng rng1(7), rng2(7);
  ASSERT_TRUE(a.Train(docs, &rng1).ok());
  ASSERT_TRUE(b.Train(docs, &rng2).ok());
  EXPECT_EQ(a.num_topics(), b.num_topics());
  EXPECT_EQ(a.InferDocument(AnimalQuery(docs), &rng1),
            b.InferDocument(AnimalQuery(docs), &rng2));
}

TEST(HdpTest, HigherGammaYieldsAtLeastAsManyTopics) {
  DocSet docs = MakeTwoTopicCorpus();
  HdpConfig low = SmallConfig();
  low.gamma = 0.1;
  HdpConfig high = SmallConfig();
  high.gamma = 20.0;
  // Average over seeds to smooth sampler noise.
  double low_topics = 0.0, high_topics = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Hdp a(low), b(high);
    Rng rng1(seed), rng2(seed);
    ASSERT_TRUE(a.Train(docs, &rng1).ok());
    ASSERT_TRUE(b.Train(docs, &rng2).ok());
    low_topics += static_cast<double>(a.num_topics());
    high_topics += static_cast<double>(b.num_topics());
  }
  EXPECT_LE(low_topics, high_topics);
}

}  // namespace
}  // namespace microrec::topic
