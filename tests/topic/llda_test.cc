#include "topic/llda.h"

#include <gtest/gtest.h>

#include <numeric>

#include "topic_test_util.h"

namespace microrec::topic {
namespace {

// A labelled corpus: animal docs carry label 0, finance docs label 1.
DocSet MakeLabeledCorpus(int docs_per_topic = 20) {
  DocSet docs = MakeTwoTopicCorpus(docs_per_topic);
  for (size_t d = 0; d < docs.num_docs(); ++d) {
    docs.SetLabels(d, {static_cast<uint32_t>(d % 2)});
  }
  return docs;
}

LldaConfig SmallConfig() {
  LldaConfig config;
  config.num_labels = 2;
  config.num_latent_topics = 2;
  config.train_iterations = 150;
  return config;
}

TEST(LldaTest, TotalTopicsIsLabelsPlusLatent) {
  LldaConfig config = SmallConfig();
  EXPECT_EQ(config.TotalTopics(), 4u);
}

TEST(LldaTest, TrainRejectsZeroLatentTopics) {
  LldaConfig config = SmallConfig();
  config.num_latent_topics = 0;
  Llda llda(config);
  DocSet docs = MakeLabeledCorpus();
  Rng rng(1);
  EXPECT_EQ(llda.Train(docs, &rng).code(), StatusCode::kInvalidArgument);
}

TEST(LldaTest, InferredDistributionIsProbability) {
  Llda llda(SmallConfig());
  DocSet docs = MakeLabeledCorpus();
  Rng rng(2);
  ASSERT_TRUE(llda.Train(docs, &rng).ok());
  auto theta = llda.InferDocument(AnimalQuery(docs), &rng);
  ASSERT_EQ(theta.size(), 4u);
  EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 1e-9);
}

TEST(LldaTest, LabelTopicsAbsorbTheirThemes) {
  Llda llda(SmallConfig());
  DocSet docs = MakeLabeledCorpus();
  Rng rng(3);
  ASSERT_TRUE(llda.Train(docs, &rng).ok());
  // Animal query should put more mass on label-topic 0 than finance does.
  auto animal = llda.InferDocument(AnimalQuery(docs), &rng);
  auto finance = llda.InferDocument(FinanceQuery(docs), &rng);
  EXPECT_GT(animal[0], finance[0]);
  EXPECT_GT(finance[1], animal[1]);
}

TEST(LldaTest, RecoversTopicSeparation) {
  Llda llda(SmallConfig());
  DocSet docs = MakeLabeledCorpus();
  Rng rng(4);
  ASSERT_TRUE(llda.Train(docs, &rng).ok());
  ExpectTopicSeparation(llda, docs, &rng);
}

TEST(LldaTest, WorksWithoutAnyLabels) {
  // No observed labels: degenerates to latent-only LDA behaviour.
  LldaConfig config;
  config.num_labels = 0;
  config.num_latent_topics = 4;
  config.train_iterations = 150;
  Llda llda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(llda.Train(docs, &rng).ok());
  ExpectTopicSeparation(llda, docs, &rng);
}

TEST(LldaTest, OutOfRangeLabelIdsIgnored) {
  LldaConfig config = SmallConfig();
  Llda llda(config);
  DocSet docs = MakeLabeledCorpus();
  docs.SetLabels(0, {0, 99});  // 99 exceeds num_labels and must be dropped
  Rng rng(6);
  EXPECT_TRUE(llda.Train(docs, &rng).ok());
}

TEST(LldaTest, DeterministicGivenSeed) {
  DocSet docs = MakeLabeledCorpus();
  Llda a(SmallConfig()), b(SmallConfig());
  Rng rng1(7), rng2(7);
  ASSERT_TRUE(a.Train(docs, &rng1).ok());
  ASSERT_TRUE(b.Train(docs, &rng2).ok());
  EXPECT_EQ(a.InferDocument(FinanceQuery(docs), &rng1),
            b.InferDocument(FinanceQuery(docs), &rng2));
}

}  // namespace
}  // namespace microrec::topic
