#include "topic/btm.h"

#include <gtest/gtest.h>

#include <numeric>

#include "topic_test_util.h"

namespace microrec::topic {
namespace {

BtmConfig SmallConfig() {
  BtmConfig config;
  config.num_topics = 4;
  config.train_iterations = 150;
  return config;
}

TEST(BtmBitermsTest, UnboundedWindowAllPairs) {
  auto biterms = Btm::ExtractBiterms({1, 2, 3}, 0);
  // (1,2), (1,3), (2,3).
  ASSERT_EQ(biterms.size(), 3u);
}

TEST(BtmBitermsTest, WindowLimitsPairDistance) {
  auto biterms = Btm::ExtractBiterms({1, 2, 3, 4}, 1);
  // Only adjacent: (1,2), (2,3), (3,4).
  EXPECT_EQ(biterms.size(), 3u);
}

TEST(BtmBitermsTest, BitermsAreUnordered) {
  auto ab = Btm::ExtractBiterms({1, 2}, 0);
  auto ba = Btm::ExtractBiterms({2, 1}, 0);
  ASSERT_EQ(ab.size(), 1u);
  EXPECT_EQ(ab[0], ba[0]);
}

TEST(BtmBitermsTest, SingleWordYieldsNoBiterms) {
  EXPECT_TRUE(Btm::ExtractBiterms({5}, 0).empty());
  EXPECT_TRUE(Btm::ExtractBiterms({}, 0).empty());
}

TEST(BtmTest, TrainCountsBiterms) {
  Btm btm(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus(5, 4);  // 10 docs of 4 words: 6 biterms
  Rng rng(1);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  EXPECT_EQ(btm.num_train_biterms(), 10u * 6u);
}

TEST(BtmTest, TrainRejectsCorpusWithoutBiterms) {
  Btm btm(SmallConfig());
  DocSet docs;
  docs.AddDocument(Words().Doc({"lonely"}));
  Rng rng(1);
  EXPECT_EQ(btm.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(BtmTest, InferenceIsDeterministicProbability) {
  Btm btm(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  auto theta1 = btm.InferDocument(AnimalQuery(docs), &rng);
  auto theta2 = btm.InferDocument(AnimalQuery(docs), &rng);
  EXPECT_EQ(theta1, theta2);  // no sampling at inference time
  EXPECT_NEAR(std::accumulate(theta1.begin(), theta1.end(), 0.0), 1.0, 1e-9);
}

TEST(BtmTest, SingleWordDocumentFallsBackToWordTopic) {
  Btm btm(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(3);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  auto theta = btm.InferDocument(docs.Lookup(Words().Doc({"cat"})), &rng);
  EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 1e-9);
  // Must lean the same way as a full animal query.
  auto animal = btm.InferDocument(AnimalQuery(docs), &rng);
  EXPECT_GT(TopicCosine(theta, animal),
            TopicCosine(theta, btm.InferDocument(FinanceQuery(docs), &rng)));
}

TEST(BtmTest, RecoversTopicSeparation) {
  Btm btm(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(4);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  ExpectTopicSeparation(btm, docs, &rng);
}

TEST(BtmTest, EmptyDocumentInfersUniform) {
  Btm btm(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  auto theta = btm.InferDocument({}, &rng);
  for (double v : theta) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(BtmTest, WindowedTrainingStillSeparates) {
  BtmConfig config = SmallConfig();
  config.window = 3;
  Btm btm(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(6);
  ASSERT_TRUE(btm.Train(docs, &rng).ok());
  ExpectTopicSeparation(btm, docs, &rng);
}

}  // namespace
}  // namespace microrec::topic
