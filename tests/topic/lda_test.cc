#include "topic/lda.h"

#include <gtest/gtest.h>

#include <numeric>

#include "topic_test_util.h"

namespace microrec::topic {
namespace {

LdaConfig SmallConfig() {
  LdaConfig config;
  config.num_topics = 4;
  config.train_iterations = 150;
  return config;
}

TEST(LdaTest, TrainRejectsEmptyCorpus) {
  Lda lda(SmallConfig());
  DocSet docs;
  Rng rng(1);
  EXPECT_EQ(lda.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(LdaTest, TrainRejectsZeroTopics) {
  LdaConfig config = SmallConfig();
  config.num_topics = 0;
  Lda lda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(1);
  EXPECT_EQ(lda.Train(docs, &rng).code(), StatusCode::kInvalidArgument);
}

TEST(LdaTest, TrainTwiceFails) {
  Lda lda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(1);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  EXPECT_EQ(lda.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(LdaTest, ResolvedAlphaDefaultsToFiftyOverK) {
  LdaConfig config;
  config.num_topics = 100;
  EXPECT_DOUBLE_EQ(config.ResolvedAlpha(), 0.5);
  config.alpha = 0.25;
  EXPECT_DOUBLE_EQ(config.ResolvedAlpha(), 0.25);
}

TEST(LdaTest, InferredDistributionIsProbability) {
  Lda lda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  auto theta = lda.InferDocument(AnimalQuery(docs), &rng);
  ASSERT_EQ(theta.size(), 4u);
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double v : theta) EXPECT_GE(v, 0.0);
}

TEST(LdaTest, EmptyDocumentInfersUniform) {
  Lda lda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(3);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  auto theta = lda.InferDocument({}, &rng);
  for (double v : theta) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(LdaTest, RecoversTopicSeparation) {
  Lda lda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(4);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  ExpectTopicSeparation(lda, docs, &rng);
}

TEST(LdaTest, TopicWordDistributionsAreProbabilities) {
  Lda lda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  for (size_t z = 0; z < lda.num_topics(); ++z) {
    auto phi = lda.TopicWordDistribution(z);
    double sum = std::accumulate(phi.begin(), phi.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, DeterministicGivenSeed) {
  DocSet docs = MakeTwoTopicCorpus();
  Lda lda1(SmallConfig()), lda2(SmallConfig());
  Rng rng1(42), rng2(42);
  ASSERT_TRUE(lda1.Train(docs, &rng1).ok());
  ASSERT_TRUE(lda2.Train(docs, &rng2).ok());
  auto theta1 = lda1.InferDocument(AnimalQuery(docs), &rng1);
  auto theta2 = lda2.InferDocument(AnimalQuery(docs), &rng2);
  EXPECT_EQ(theta1, theta2);
}

// Property sweep: separation must hold across topic counts.
class LdaTopicCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LdaTopicCountTest, SeparatesThemesAtAnyK) {
  LdaConfig config = SmallConfig();
  config.num_topics = GetParam();
  Lda lda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(6);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  ExpectTopicSeparation(lda, docs, &rng);
}

INSTANTIATE_TEST_SUITE_P(TopicCounts, LdaTopicCountTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace microrec::topic
