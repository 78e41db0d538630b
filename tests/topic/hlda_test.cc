#include "topic/hlda.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "snapshot/format.h"
#include "topic_test_util.h"

namespace microrec::topic {
namespace {

HldaConfig SmallConfig() {
  HldaConfig config;
  config.levels = 3;
  config.train_iterations = 40;
  config.alpha = 2.0;
  return config;
}

TEST(HldaTest, TrainRejectsEmptyCorpus) {
  Hlda hlda(SmallConfig());
  DocSet docs;
  Rng rng(1);
  EXPECT_EQ(hlda.Train(docs, &rng).code(), StatusCode::kFailedPrecondition);
}

TEST(HldaTest, TrainRejectsNonPositiveLevels) {
  HldaConfig config = SmallConfig();
  config.levels = 0;
  Hlda hlda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(1);
  EXPECT_EQ(hlda.Train(docs, &rng).code(), StatusCode::kInvalidArgument);
}

TEST(HldaTest, BuildsTreeWithMultiplePaths) {
  Hlda hlda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(hlda.Train(docs, &rng).ok());
  // Two clearly distinct themes should branch into at least two paths, and
  // the tree must have at least levels (3) nodes.
  EXPECT_GE(hlda.num_paths(), 2u);
  EXPECT_GE(hlda.num_topics(), 3u);
}

TEST(HldaTest, InferenceMassesConcentrateOnOnePath) {
  Hlda hlda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(3);
  ASSERT_TRUE(hlda.Train(docs, &rng).ok());
  auto theta = hlda.InferDocument(AnimalQuery(docs), &rng);
  EXPECT_EQ(theta.size(), hlda.num_topics());
  // Mass sums to ~1 and at most `levels` nodes carry it.
  EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 1e-6);
  int nonzero = 0;
  for (double v : theta) nonzero += v > 1e-12 ? 1 : 0;
  EXPECT_LE(nonzero, 3);
}

TEST(HldaTest, RecoversTopicSeparation) {
  Hlda hlda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(4);
  ASSERT_TRUE(hlda.Train(docs, &rng).ok());
  ExpectTopicSeparation(hlda, docs, &rng);
}

TEST(HldaTest, SingleLevelDegeneratesToOneTopicPerDoc) {
  HldaConfig config = SmallConfig();
  config.levels = 1;
  Hlda hlda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  ASSERT_TRUE(hlda.Train(docs, &rng).ok());
  // One level = everyone sits at the root.
  EXPECT_EQ(hlda.num_topics(), 1u);
  EXPECT_EQ(hlda.num_paths(), 1u);
}

TEST(HldaTest, EmptyDocumentInfersUniform) {
  Hlda hlda(SmallConfig());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(6);
  ASSERT_TRUE(hlda.Train(docs, &rng).ok());
  auto theta = hlda.InferDocument({}, &rng);
  EXPECT_EQ(theta.size(), hlda.num_topics());
  double expected = 1.0 / static_cast<double>(hlda.num_topics());
  for (double v : theta) EXPECT_DOUBLE_EQ(v, expected);
}

TEST(HldaTest, DeterministicGivenSeed) {
  DocSet docs = MakeTwoTopicCorpus();
  Hlda a(SmallConfig()), b(SmallConfig());
  Rng rng1(7), rng2(7);
  ASSERT_TRUE(a.Train(docs, &rng1).ok());
  ASSERT_TRUE(b.Train(docs, &rng2).ok());
  EXPECT_EQ(a.num_topics(), b.num_topics());
  EXPECT_EQ(a.num_paths(), b.num_paths());
  EXPECT_EQ(a.InferDocument(FinanceQuery(docs), &rng1),
            b.InferDocument(FinanceQuery(docs), &rng2));
}

// A hand-encoded frozen tree of one node and one path through it.
std::string EncodeOneNodeState(const std::vector<uint32_t>& path) {
  snapshot::Encoder enc;
  enc.PutU64(1);       // vocabulary size
  enc.PutU64(1);       // nodes
  enc.PutVecU32({0});  // node 0's terms
  enc.PutVecU32({1});  // node 0's counts
  enc.PutVecU32({1});  // node totals
  enc.PutU64(1);       // paths
  enc.PutVecU32(path);
  enc.PutVecU32({1});  // path document counts
  return enc.bytes();
}

TEST(HldaTest, LoadStateRefusesPathShorterThanLevels) {
  const std::string full = EncodeOneNodeState({0, 0, 0});
  Hlda loaded(SmallConfig());
  snapshot::Decoder full_dec(full);
  ASSERT_TRUE(loaded.LoadState(&full_dec).ok());

  const std::string short_path = EncodeOneNodeState({0});
  Hlda refused(SmallConfig());
  snapshot::Decoder dec(short_path);
  const Status status = refused.LoadState(&dec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("path 0 has length 1"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace microrec::topic
