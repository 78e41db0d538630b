// Shared world for the streaming-ingest suites: two query users (ego on
// cats, rival on stocks) whose retweet train sets interleave in time, so a
// mid-time cut yields a non-trivial base and a multi-batch stream for
// either or both users. Mirrors the serving_test fixture but with enough
// retweets per user that cut_fraction 0.5 leaves several batches to apply.
#ifndef MICROREC_TESTS_STREAM_STREAM_FIXTURE_H_
#define MICROREC_TESTS_STREAM_STREAM_FIXTURE_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "resilience/fault.h"
#include "stream/session.h"
#include "temp_dir.h"

namespace microrec::stream {

// Members are public so free helper functions in the suites (e.g. the
// kill-recover driver) can reach the ctx and directories.
class StreamFixture : public ::testing::Test {
 public:
  void SetUp() override {
    ego_ = world_.AddUser("ego");
    rival_ = world_.AddUser("rival");
    cats_ = world_.AddUser("cats_feed");
    stocks_ = world_.AddUser("stocks_feed");
    ASSERT_TRUE(world_.graph().AddFollow(ego_, cats_).ok());
    ASSERT_TRUE(world_.graph().AddFollow(ego_, stocks_).ok());
    ASSERT_TRUE(world_.graph().AddFollow(rival_, cats_).ok());
    ASSERT_TRUE(world_.graph().AddFollow(rival_, stocks_).ok());

    const char* cat_texts[] = {
        "fluffy cat naps on warm windowsill",
        "my cat chases the red laser dot",
        "cute kitten plays with yarn ball cat",
        "cat purrs softly during long nap",
        "orange cat watches birds from the porch",
        "tiny kitten climbs the tall curtain",
    };
    const char* stock_texts[] = {
        "stocks rally as markets open higher",
        "bond yields fall after rate decision",
        "tech stocks lead the market rebound",
        "investors rotate into value funds",
        "futures slip ahead of earnings week",
        "central bank holds rates steady again",
    };
    corpus::Timestamp t = 0;
    for (const char* text : cat_texts) {
      cat_posts_.push_back(*world_.AddTweet(cats_, t += 10, text));
    }
    for (const char* text : stock_texts) {
      stock_posts_.push_back(*world_.AddTweet(stocks_, t += 10, text));
    }
    // Retweets interleave in time so the pooled cut splits both users.
    for (size_t i = 0; i < cat_posts_.size(); ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", cat_posts_[i]);
      (void)*world_.AddTweet(rival_, t += 10, "", stock_posts_[i]);
    }
    test_cat_ = *world_.AddTweet(cats_, t += 10,
                                 "my sleepy cat naps in the warm sun");
    test_stock_ = *world_.AddTweet(
        stocks_, t += 10, "bond yields rise as tech stocks slip today");
    test_time_ = t;
    world_.Finalize();

    pre_ = std::make_unique<rec::PreprocessedCorpus>(
        world_, std::vector<corpus::TweetId>{}, /*stop_top_k=*/0);
    train_.docs = world_.RetweetsOf(ego_);
    train_.positive.assign(train_.docs.size(), true);
    rival_train_.docs = world_.RetweetsOf(rival_);
    rival_train_.positive.assign(rival_train_.docs.size(), true);

    users_ = {ego_, rival_};
    ctx_.pre = pre_.get();
    ctx_.source = corpus::Source::kR;
    ctx_.users = &users_;
    ctx_.train_set =
        [this](corpus::UserId u) -> const corpus::LabeledTrainSet& {
      return u == ego_ ? train_ : rival_train_;
    };
    ctx_.seed = 11;
    ctx_.iteration_scale = 0.05;
    ctx_.llda_min_hashtag_count = 1;

    root_ = testutil::UniqueTempDir("microrec_stream");
    std::filesystem::create_directories(root_);
  }

  void TearDown() override {
    resilience::ClearFaults();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// A fresh state directory under the test root.
  std::string NewDir(const std::string& name) {
    std::string dir = root_ + "/" + name;
    std::filesystem::create_directories(dir);
    return dir;
  }

  static rec::ModelConfig TnConfig() {
    rec::ModelConfig config;
    config.kind = rec::ModelKind::kTN;
    config.bag.kind = bag::NgramKind::kToken;
    config.bag.n = 1;
    config.bag.weighting = bag::Weighting::kTFIDF;
    config.bag.aggregation = bag::Aggregation::kCentroid;
    config.bag.similarity = bag::BagSimilarity::kCosine;
    return config;
  }

  static rec::ModelConfig LdaConfig() {
    rec::ModelConfig config;
    config.kind = rec::ModelKind::kLDA;
    return config;
  }

  Result<StreamCut> Cut(double fraction = 0.5,
                        std::vector<corpus::UserId> stream_users = {}) {
    StreamCutOptions options;
    options.cut_fraction = fraction;
    options.stream_users = std::move(stream_users);
    return MakeStreamCut(ctx_, options);
  }

  StreamSessionOptions SessionOptions(const rec::ModelConfig& config,
                                      const std::string& dir,
                                      size_t batch_size = 2,
                                      size_t checkpoint_every = 0) {
    StreamSessionOptions options;
    options.config = config;
    options.dir = dir;
    options.batch_size = batch_size;
    options.checkpoint_every = checkpoint_every;
    return options;
  }

  corpus::Corpus world_;
  std::unique_ptr<rec::PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_, rival_train_;
  std::vector<corpus::UserId> users_;
  rec::EngineContext ctx_;
  corpus::UserId ego_ = 0, rival_ = 0, cats_ = 0, stocks_ = 0;
  std::vector<corpus::TweetId> cat_posts_, stock_posts_;
  corpus::TweetId test_cat_ = 0, test_stock_ = 0;
  corpus::Timestamp test_time_ = 0;
  std::string root_;
};

}  // namespace microrec::stream

#endif  // MICROREC_TESTS_STREAM_STREAM_FIXTURE_H_
