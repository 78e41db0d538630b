#include "topic/plsa.h"

#include <gtest/gtest.h>

#include <numeric>

#include "topic_test_util.h"

namespace microrec::topic {
namespace {

PlsaConfig SmallConfig() {
  PlsaConfig config;
  config.num_topics = 4;
  config.train_iterations = 60;
  return config;
}

TEST(PlsaTest, TrainRejectsEmptyCorpus) {
  Plsa plsa(SmallConfig());
  DocSet docs;
  Rng rng(1);
  EXPECT_EQ(plsa.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(PlsaTest, InferredDistributionIsProbability) {
  Plsa plsa(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(plsa.Train(docs, &rng).ok());
  auto theta = plsa.InferDocument(AnimalQuery(docs), &rng);
  ASSERT_EQ(theta.size(), 4u);
  EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 1e-9);
}

TEST(PlsaTest, RecoversTopicSeparation) {
  Plsa plsa(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(3);
  ASSERT_TRUE(plsa.Train(docs, &rng).ok());
  ExpectTopicSeparation(plsa, docs, &rng);
}

TEST(PlsaTest, FoldingInIsDeterministic) {
  Plsa plsa(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(4);
  ASSERT_TRUE(plsa.Train(docs, &rng).ok());
  EXPECT_EQ(plsa.InferDocument(AnimalQuery(docs), &rng),
            plsa.InferDocument(AnimalQuery(docs), &rng));
}

TEST(PlsaTest, MemoryEstimateGrowsLinearlyInDocs) {
  // The paper's exclusion reason (Section 4): θ and the E-step posterior
  // both grow with |D|.
  size_t small = Plsa::EstimateMemoryBytes(1000, 10000, 100, 10);
  size_t large = Plsa::EstimateMemoryBytes(2000, 10000, 100, 10);
  EXPECT_GT(large, small);
  // Per extra doc: θ row (2 * K doubles) + posterior rows (10 * K doubles).
  EXPECT_EQ(large - small, 1000u * 100u * (2 + 10) * sizeof(double));
}

TEST(PlsaTest, PaperScaleViolatesMemoryConstraint) {
  // 2.07M tweets (NP pooling), ~1M-word vocabulary, 200 topics: no
  // configuration fit in the paper's 32 GB (Section 4).
  size_t bytes = Plsa::EstimateMemoryBytes(2070000, 1000000, 200, 12);
  EXPECT_GT(bytes, 32ull * 1024 * 1024 * 1024);
  // Even the smallest grid configuration (50 topics) blows the limit.
  EXPECT_GT(Plsa::EstimateMemoryBytes(2070000, 1000000, 50, 12) +
                Plsa::EstimateMemoryBytes(0, 0, 0, 0),
            32ull * 1024 * 1024 * 1024 / 4);
}

TEST(PlsaTest, EmptyDocumentInfersUniform) {
  Plsa plsa(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(plsa.Train(docs, &rng).ok());
  auto theta = plsa.InferDocument({}, &rng);
  for (double v : theta) EXPECT_DOUBLE_EQ(v, 0.25);
}

}  // namespace
}  // namespace microrec::topic
