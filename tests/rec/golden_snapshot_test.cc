// The writer's pinned output: tiny committed microrec.snap/2 files in
// tests/rec/testdata/, one per engine family (TN, TNG, LDA), saved over the
// frozen world below. Each must warm-start to its pinned scores through
// LoadSnapshot and through OpenMapped, and a resident open followed at once
// by SaveSnapshot must reproduce its bytes exactly, so any change to what
// the engines write or to how they read it back fails here. Re-recording a
// fixture is a format change, and CHANGES.md must justify it.
//
// The TN fixture is checked against a cold-trained engine; the graph and
// topic fixtures against score bit patterns pinned when they were written,
// since their cold-trained weights may change in the last bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "rec/engine.h"
#include "snapshot/snapshot.h"
#include "temp_dir.h"

#ifndef MICROREC_TEST_SOURCE_DIR
#define MICROREC_TEST_SOURCE_DIR "."
#endif

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

std::string FixturePath(const std::string& name) {
  return std::string(MICROREC_TEST_SOURCE_DIR) + "/rec/testdata/" + name;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A committed fixture, its configuration, and the bit patterns it scores
/// the two test tweets to.
struct Pinned {
  const char* file;
  ModelConfig config;
  uint64_t cat;
  uint64_t stock;
};

/// The frozen world behind the fixtures. Everything here is deterministic —
/// corpus construction, tokenization, training — so the code revision that
/// wrote the fixtures produced them byte-identically.
class GoldenSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ego_ = world_.AddUser("ego");
    feed_ = world_.AddUser("feed");
    ASSERT_TRUE(world_.graph().AddFollow(ego_, feed_).ok());
    const char* texts[] = {
        "fluffy cat naps on warm windowsill",
        "my cat chases the red laser dot",
        "cute kitten plays with yarn ball cat",
        "stocks rally as markets open higher",
        "tech stocks lead the market rebound",
    };
    corpus::Timestamp t = 0;
    for (const char* text : texts) {
      posts_.push_back(*world_.AddTweet(feed_, t += 10, text));
    }
    // Three cat retweets: TF-IDF needs idf = log(3/2) > 0 on df=1 terms
    // for the profile to carry weight at all.
    for (int i = 0; i < 3; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", posts_[i]);
    }
    test_cat_ = *world_.AddTweet(feed_, t += 10,
                                 "my sleepy cat naps in the warm sun");
    test_stock_ = *world_.AddTweet(feed_, t += 10,
                                   "bond yields rise as tech stocks slip");
    world_.Finalize();

    pre_ = std::make_unique<PreprocessedCorpus>(
        world_, std::vector<TweetId>{}, /*stop_top_k=*/0);
    train_.docs = world_.RetweetsOf(ego_);
    train_.positive.assign(train_.docs.size(), true);
    users_ = {ego_};

    ctx_.pre = pre_.get();
    ctx_.source = Source::kR;
    ctx_.users = &users_;
    ctx_.train_set = [this](UserId) -> const corpus::LabeledTrainSet& {
      return train_;
    };
    ctx_.seed = 11;
    ctx_.iteration_scale = 0.1;

    config_.kind = ModelKind::kTN;
    config_.bag.kind = bag::NgramKind::kToken;
    config_.bag.n = 1;
    config_.bag.weighting = bag::Weighting::kTFIDF;
    config_.bag.aggregation = bag::Aggregation::kCentroid;
    config_.bag.similarity = bag::BagSimilarity::kCosine;
  }

  /// The configuration behind golden_tng_v2.snap.
  static ModelConfig TngConfig() {
    ModelConfig config;
    config.kind = ModelKind::kTNG;
    config.graph.kind = bag::NgramKind::kToken;
    config.graph.n = 1;
    config.graph.similarity = graph::GraphSimilarity::kValue;
    return config;
  }

  /// The configuration behind golden_lda_v2.snap. Both test tweets were
  /// scored before it was saved, so its inference cache holds them.
  static ModelConfig LdaConfig() {
    ModelConfig config;
    config.kind = ModelKind::kLDA;
    config.topic.num_topics = 4;
    config.topic.iterations = 500;
    config.topic.pooling = corpus::Pooling::kNone;
    config.topic.beta = 0.01;
    return config;
  }

  /// The graph and topic fixtures' pins: the bit patterns the writing
  /// revision's engines scored. The stock tweet shares no term with ego's
  /// cat retweets, so both families score it 0.
  static std::vector<Pinned> GraphAndTopicPins() {
    return {{"golden_tng_v2.snap", TngConfig(), 0x3f94141414141415ULL, 0},
            {"golden_lda_v2.snap", LdaConfig(), 0x3fefefdf1c812f1bULL, 0}};
  }

  /// Warm-starts `path` through LoadSnapshot and through OpenMapped and
  /// expects both to score the test tweets as `cat` and `stock`, bit for
  /// bit.
  void ExpectWarmStartsScore(const ModelConfig& config,
                             const std::string& path, double cat,
                             double stock) {
    auto restored = MakeEngine(config);
    Status load = restored->LoadSnapshot(path, ctx_);
    ASSERT_TRUE(load.ok()) << load.ToString();
    ASSERT_TRUE(restored->BuildUser(ego_, train_, ctx_).ok());  // no-op
    EXPECT_EQ(Bits(restored->Score(ego_, test_cat_, ctx_)), Bits(cat));
    EXPECT_EQ(Bits(restored->Score(ego_, test_stock_, ctx_)), Bits(stock));

    EngineContext mmap_ctx = ctx_;
    mmap_ctx.serve_mode = ServeMode::kMmap;
    auto mapped = MakeEngine(config);
    Status open = mapped->OpenMapped(path, mmap_ctx);
    ASSERT_TRUE(open.ok()) << open.ToString();
    ASSERT_TRUE(mapped->BuildUser(ego_, train_, mmap_ctx).ok());  // no-op
    EXPECT_EQ(Bits(mapped->Score(ego_, test_cat_, mmap_ctx)), Bits(cat));
    EXPECT_EQ(Bits(mapped->Score(ego_, test_stock_, mmap_ctx)), Bits(stock));
  }

  /// Cold-trains the reference engine the fixture must match.
  std::unique_ptr<Engine> ColdTrain() {
    auto engine = MakeEngine(config_);
    EXPECT_TRUE(engine->Prepare(ctx_).ok());
    EXPECT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    return engine;
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_;
  std::vector<UserId> users_;
  std::vector<TweetId> posts_;
  EngineContext ctx_;
  ModelConfig config_;
  UserId ego_ = 0, feed_ = 0;
  TweetId test_cat_ = 0, test_stock_ = 0;
};

TEST_F(GoldenSnapshotTest, CommittedV2FixtureWarmStartsBitIdentically) {
  const std::string path = FixturePath("golden_tn_v2.snap");
  ASSERT_TRUE(std::filesystem::exists(path)) << path << " missing";
  ASSERT_EQ(ReadFile(path).substr(0, snapshot::kMagicSize),
            std::string(snapshot::kMagicV2, snapshot::kMagicSize));

  auto cold = ColdTrain();
  const double cat = cold->Score(ego_, test_cat_, ctx_);
  const double stock = cold->Score(ego_, test_stock_, ctx_);
  // Sanity: the fixture world separates the themes.
  EXPECT_GT(cat, stock);
  ExpectWarmStartsScore(config_, path, cat, stock);
}

TEST_F(GoldenSnapshotTest, GraphAndTopicV2FixturesWarmStartToPinnedScores) {
  for (const Pinned& p : GraphAndTopicPins()) {
    SCOPED_TRACE(p.file);
    const std::string path = FixturePath(p.file);
    ASSERT_TRUE(std::filesystem::exists(path)) << path << " missing";
    ASSERT_EQ(ReadFile(path).substr(0, snapshot::kMagicSize),
              std::string(snapshot::kMagicV2, snapshot::kMagicSize));
    ExpectWarmStartsScore(p.config, path, FromBits(p.cat), FromBits(p.stock));
  }
}

TEST_F(GoldenSnapshotTest, V2FixturesResaveByteIdentically) {
  // What the engines write, pinned byte for byte: a resident open followed
  // at once by SaveSnapshot reproduces each committed file, and the copy
  // then serves the fixture's scores through both opens.
  auto cold = ColdTrain();
  std::vector<Pinned> fixtures = {
      {"golden_tn_v2.snap", config_,
       Bits(cold->Score(ego_, test_cat_, ctx_)),
       Bits(cold->Score(ego_, test_stock_, ctx_))}};
  for (const Pinned& p : GraphAndTopicPins()) fixtures.push_back(p);
  for (const Pinned& p : fixtures) {
    SCOPED_TRACE(p.file);
    const std::string path = FixturePath(p.file);
    const std::string committed = ReadFile(path);
    ASSERT_FALSE(committed.empty()) << path << " missing";
    auto engine = MakeEngine(p.config);
    Status open = engine->LoadSnapshot(path, ctx_);
    ASSERT_TRUE(open.ok()) << open.ToString();

    const std::string copy =
        testutil::UniqueTempDir("microrec_golden_resave") + ".snap";
    Status save = engine->SaveSnapshot(copy, ctx_);
    ASSERT_TRUE(save.ok()) << save.ToString();
    const std::string resaved = ReadFile(copy);
    const auto diff = std::mismatch(resaved.begin(), resaved.end(),
                                    committed.begin(), committed.end());
    EXPECT_TRUE(resaved == committed)
        << "re-saved " << resaved.size() << " bytes against "
        << committed.size() << " committed; first difference at offset "
        << diff.first - resaved.begin();
    ExpectWarmStartsScore(p.config, copy, FromBits(p.cat), FromBits(p.stock));
    std::error_code ec;
    std::filesystem::remove(copy, ec);
  }
}

}  // namespace
}  // namespace microrec::rec
