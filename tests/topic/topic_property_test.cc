// Property sweep across all six topic-model implementations: shared
// invariants of Train/InferDocument regardless of the sampler.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "topic/btm.h"
#include "topic/hdp.h"
#include "topic/hlda.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic/plsa.h"
#include "topic_test_util.h"

namespace microrec::topic {
namespace {

enum class Kind { kLda, kLlda, kBtm, kHdp, kHlda, kPlsa };

std::unique_ptr<TopicModel> Make(Kind kind) {
  switch (kind) {
    case Kind::kLda: {
      LdaConfig config;
      config.num_topics = 4;
      config.train_iterations = 120;
      return std::make_unique<Lda>(config);
    }
    case Kind::kLlda: {
      LldaConfig config;
      config.num_labels = 0;
      config.num_latent_topics = 4;
      config.train_iterations = 120;
      return std::make_unique<Llda>(config);
    }
    case Kind::kBtm: {
      BtmConfig config;
      config.num_topics = 4;
      config.train_iterations = 120;
      return std::make_unique<Btm>(config);
    }
    case Kind::kHdp: {
      HdpConfig config;
      config.train_iterations = 80;
      return std::make_unique<Hdp>(config);
    }
    case Kind::kHlda: {
      HldaConfig config;
      config.levels = 3;
      config.alpha = 2.0;
      config.train_iterations = 30;
      return std::make_unique<Hlda>(config);
    }
    case Kind::kPlsa: {
      PlsaConfig config;
      config.num_topics = 4;
      config.train_iterations = 50;
      return std::make_unique<Plsa>(config);
    }
  }
  return nullptr;
}

class TopicModelPropertyTest : public ::testing::TestWithParam<Kind> {};

TEST_P(TopicModelPropertyTest, InferenceYieldsProbabilityVector) {
  auto model = Make(GetParam());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(10);
  ASSERT_TRUE(model->Train(docs, &rng).ok());
  EXPECT_GT(model->num_topics(), 0u);
  for (const auto& query :
       {AnimalQuery(docs), FinanceQuery(docs),
        docs.Lookup(Words().Doc({"cat", "stock"}))}) {
    auto theta = model->InferDocument(query, &rng);
    ASSERT_EQ(theta.size(), model->num_topics()) << model->name();
    double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 0.05) << model->name();
    for (double v : theta) {
      EXPECT_GE(v, 0.0) << model->name();
      EXPECT_LE(v, 1.0 + 1e-9) << model->name();
    }
  }
}

TEST_P(TopicModelPropertyTest, TrainTwiceRejected) {
  auto model = Make(GetParam());
  DocSet docs = MakeTwoTopicCorpus(6, 8);
  Rng rng(11);
  ASSERT_TRUE(model->Train(docs, &rng).ok());
  EXPECT_EQ(model->Train(docs, &rng).code(),
            StatusCode::kFailedPrecondition)
      << model->name();
}

TEST_P(TopicModelPropertyTest, SeparatesThemes) {
  auto model = Make(GetParam());
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(12);
  ASSERT_TRUE(model->Train(docs, &rng).ok());
  ExpectTopicSeparation(*model, docs, &rng);
}

TEST_P(TopicModelPropertyTest, DeterministicAcrossInstances) {
  DocSet docs = MakeTwoTopicCorpus(8, 8);
  auto a = Make(GetParam());
  auto b = Make(GetParam());
  Rng rng1(13), rng2(13);
  ASSERT_TRUE(a->Train(docs, &rng1).ok());
  ASSERT_TRUE(b->Train(docs, &rng2).ok());
  EXPECT_EQ(a->num_topics(), b->num_topics()) << a->name();
  EXPECT_EQ(a->InferDocument(AnimalQuery(docs), &rng1),
            b->InferDocument(AnimalQuery(docs), &rng2))
      << a->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TopicModelPropertyTest,
    ::testing::Values(Kind::kLda, Kind::kLlda, Kind::kBtm, Kind::kHdp,
                      Kind::kHlda, Kind::kPlsa),
    [](const ::testing::TestParamInfo<Kind>& info) {
      switch (info.param) {
        case Kind::kLda:
          return "LDA";
        case Kind::kLlda:
          return "LLDA";
        case Kind::kBtm:
          return "BTM";
        case Kind::kHdp:
          return "HDP";
        case Kind::kHlda:
          return "HLDA";
        case Kind::kPlsa:
          return "PLSA";
      }
      return "unknown";
    });

}  // namespace
}  // namespace microrec::topic
