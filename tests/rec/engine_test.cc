#include "rec/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

// A miniature world: ego follows cats-feed and stocks-feed; she retweets
// only cat posts. Engines must rank unseen cat posts above stock posts.
class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ego_ = world_.AddUser("ego");
    cats_ = world_.AddUser("cats_feed");
    stocks_ = world_.AddUser("stocks_feed");
    ASSERT_TRUE(world_.graph().AddFollow(ego_, cats_).ok());
    ASSERT_TRUE(world_.graph().AddFollow(ego_, stocks_).ok());

    const char* cat_texts[] = {
        "fluffy cat naps on warm windowsill",
        "my cat chases the red laser dot",
        "cute kitten plays with yarn ball cat",
        "cat purrs softly during long nap",
        "the cat knocked my mug off again",
        "tiny kitten learns to climb curtains",
    };
    const char* stock_texts[] = {
        "stocks rally as markets open higher",
        "bond yields fall after rate decision",
        "tech stocks lead the market rebound",
        "investors rotate into value funds",
        "earnings beat sends shares soaring",
        "market volatility spikes on inflation data",
    };
    corpus::Timestamp t = 0;
    for (const char* text : cat_texts) {
      cat_posts_.push_back(*world_.AddTweet(cats_, t += 10, text));
    }
    for (const char* text : stock_texts) {
      stock_posts_.push_back(*world_.AddTweet(stocks_, t += 10, text));
    }
    // ego retweets the first four cat posts; a rival user retweets the
    // first four stock posts, so the *global* topic-model training corpus
    // (the union of all users' train sets, as in Section 4) covers both
    // themes.
    rival_ = world_.AddUser("rival");
    ASSERT_TRUE(world_.graph().AddFollow(rival_, stocks_).ok());
    for (int i = 0; i < 4; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", cat_posts_[i]);
      (void)*world_.AddTweet(rival_, t += 10, "", stock_posts_[i]);
    }
    // Held-out test docs reuse training collocations ("cat naps",
    // "bond yields"), as real posts in a community do.
    test_cat_ = *world_.AddTweet(cats_, t += 10,
                                 "my sleepy cat naps in the warm sun");
    test_stock_ = *world_.AddTweet(
        stocks_, t += 10, "bond yields rise as tech stocks slip today");
    world_.Finalize();

    pre_ = std::make_unique<PreprocessedCorpus>(
        world_, std::vector<TweetId>{}, /*stop_top_k=*/0);

    // Train sets: each user's retweets (source R), all positive.
    train_.docs = world_.RetweetsOf(ego_);
    train_.positive.assign(train_.docs.size(), true);
    rival_train_.docs = world_.RetweetsOf(rival_);
    rival_train_.positive.assign(rival_train_.docs.size(), true);

    users_ = {ego_, rival_};
    ctx_.pre = pre_.get();
    ctx_.source = Source::kR;
    ctx_.users = &users_;
    ctx_.train_set = [this](UserId u) -> const corpus::LabeledTrainSet& {
      return u == ego_ ? train_ : rival_train_;
    };
    ctx_.seed = 11;
    ctx_.iteration_scale = 0.1;
    ctx_.llda_min_hashtag_count = 1;
  }

  void ExpectPrefersCats(Engine* engine) {
    ASSERT_TRUE(engine->Prepare(ctx_).ok());
    ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    double cat_score = engine->Score(ego_, test_cat_, ctx_);
    double stock_score = engine->Score(ego_, test_stock_, ctx_);
    EXPECT_GT(cat_score, stock_score);
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_;
  std::vector<UserId> users_;
  EngineContext ctx_;
  UserId ego_ = 0, cats_ = 0, stocks_ = 0, rival_ = 0;
  corpus::LabeledTrainSet rival_train_;
  std::vector<TweetId> cat_posts_, stock_posts_;
  TweetId test_cat_ = 0, test_stock_ = 0;
};

TEST_F(EngineFixture, BagEnginePrefersUserTopic) {
  ModelConfig config;
  config.kind = ModelKind::kTN;
  config.bag.kind = bag::NgramKind::kToken;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;
  auto engine = MakeEngine(config);
  ExpectPrefersCats(engine.get());
}

TEST_F(EngineFixture, CharBagEnginePrefersUserTopic) {
  ModelConfig config;
  config.kind = ModelKind::kCN;
  config.bag.kind = bag::NgramKind::kChar;
  config.bag.n = 3;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kSum;
  config.bag.similarity = bag::BagSimilarity::kGeneralizedJaccard;
  auto engine = MakeEngine(config);
  ExpectPrefersCats(engine.get());
}

// Embed and Kernel are the two halves of a bag Score: for a built user
// Kernel(u, Profile(u), Embed(u, d)) reproduces Score(u, d) bit for bit,
// and a user the engine does not hold embeds nothing.
TEST_F(EngineFixture, BagEmbedThenKernelIsScore) {
  for (ModelKind kind : {ModelKind::kTN, ModelKind::kCN}) {
    for (bag::BagSimilarity similarity :
         {bag::BagSimilarity::kCosine, bag::BagSimilarity::kJaccard,
          bag::BagSimilarity::kGeneralizedJaccard}) {
      ModelConfig config;
      config.kind = kind;
      config.bag.kind = kind == ModelKind::kTN ? bag::NgramKind::kToken
                                               : bag::NgramKind::kChar;
      config.bag.n = kind == ModelKind::kTN ? 1 : 3;
      config.bag.weighting = bag::Weighting::kTF;
      config.bag.aggregation = bag::Aggregation::kCentroid;
      config.bag.similarity = similarity;
      SCOPED_TRACE(config.bag.ToString());
      auto engine = MakeEngine(config);
      ASSERT_TRUE(engine->Prepare(ctx_).ok());
      ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
      SparseProfileScorer* scorer = engine->sparse_scorer();
      ASSERT_NE(scorer, nullptr);
      EXPECT_TRUE(scorer->Embed(rival_, test_cat_, ctx_).empty());
      const bag::SparseVector* profile = scorer->Profile(ego_);
      ASSERT_NE(profile, nullptr);
      for (TweetId d : {test_cat_, test_stock_}) {
        const double split =
            scorer->Kernel(ego_, *profile, scorer->Embed(ego_, d, ctx_));
        const double score = engine->Score(ego_, d, ctx_);
        uint64_t split_bits = 0;
        uint64_t score_bits = 0;
        std::memcpy(&split_bits, &split, sizeof(split));
        std::memcpy(&score_bits, &score, sizeof(score));
        EXPECT_EQ(split_bits, score_bits) << split << " vs " << score;
      }
    }
  }
}

TEST_F(EngineFixture, GraphEnginePrefersUserTopic) {
  ModelConfig config;
  config.kind = ModelKind::kTNG;
  config.graph.kind = bag::NgramKind::kToken;
  config.graph.n = 1;
  config.graph.similarity = graph::GraphSimilarity::kValue;
  auto engine = MakeEngine(config);
  ExpectPrefersCats(engine.get());
}

TEST_F(EngineFixture, TopicEnginesPreferUserTopic) {
  for (ModelKind kind : {ModelKind::kLDA, ModelKind::kBTM, ModelKind::kHDP,
                         ModelKind::kPLSA}) {
    ModelConfig config;
    config.kind = kind;
    config.topic.num_topics = 4;
    config.topic.iterations = 2000;  // scaled by 0.1 -> 200 sweeps
    config.topic.pooling = corpus::Pooling::kNone;
    config.topic.beta = 0.01;
    auto engine = MakeEngine(config);
    SCOPED_TRACE(ModelKindName(kind));
    ExpectPrefersCats(engine.get());
  }
}

TEST_F(EngineFixture, HldaEngineRuns) {
  ModelConfig config;
  config.kind = ModelKind::kHLDA;
  config.topic.iterations = 300;
  config.topic.levels = 3;
  config.topic.alpha = 2.0;
  config.topic.beta = 0.1;
  config.topic.pooling = corpus::Pooling::kNone;
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine->Prepare(ctx_).ok());
  ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
  // HLDA on a 12-doc corpus is noisy; assert sane scores, not ordering.
  double cat_score = engine->Score(ego_, test_cat_, ctx_);
  double stock_score = engine->Score(ego_, test_stock_, ctx_);
  EXPECT_GE(cat_score, -1.0);
  EXPECT_LE(cat_score, 1.0);
  EXPECT_GE(stock_score, -1.0);
  EXPECT_LE(stock_score, 1.0);
}

TEST_F(EngineFixture, LldaEngineUsesLabels) {
  ModelConfig config;
  config.kind = ModelKind::kLLDA;
  config.topic.num_topics = 4;
  config.topic.iterations = 2000;
  config.topic.pooling = corpus::Pooling::kNone;
  auto engine = MakeEngine(config);
  ExpectPrefersCats(engine.get());
}

TEST_F(EngineFixture, TopicEngineRequiresPrepare) {
  ModelConfig config;
  config.kind = ModelKind::kLDA;
  auto engine = MakeEngine(config);
  EXPECT_EQ(engine->BuildUser(ego_, train_, ctx_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, ScoresAreDeterministicAcrossCalls) {
  ModelConfig config;
  config.kind = ModelKind::kLDA;
  config.topic.num_topics = 4;
  config.topic.iterations = 500;
  config.topic.pooling = corpus::Pooling::kUser;
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine->Prepare(ctx_).ok());
  ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
  double first = engine->Score(ego_, test_cat_, ctx_);
  double second = engine->Score(ego_, test_cat_, ctx_);
  EXPECT_EQ(first, second);  // inference cache
}

}  // namespace
}  // namespace microrec::rec
