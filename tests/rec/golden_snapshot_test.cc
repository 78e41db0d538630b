// Backward compatibility against *committed* v1 fixtures: tiny
// microrec.snap/1 files checked into tests/rec/testdata/, one per engine
// family, written by the last code revision that wrote the v1 layout. The
// reader must keep warm-starting them bit-identically — through
// LoadSnapshot, through OpenMapped (which opens a v1 file resident), and
// after a re-save, which writes microrec.snap/2 — so no format change can
// silently orphan already-trained snapshots.
//
// No code writes v1 any more, so the fixtures cannot be regenerated. The TN
// fixture is checked against a cold-trained engine; the graph and topic
// fixtures against score bit patterns pinned when they were written, since
// their cold-trained weights may change in the last bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
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

std::string GoldenPath() { return FixturePath("golden_tn_v1.snap"); }

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

std::string Magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string magic(snapshot::kMagicSize, '\0');
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  return magic;
}

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

  /// The configuration behind golden_tng_v1.snap.
  static ModelConfig TngConfig() {
    ModelConfig config;
    config.kind = ModelKind::kTNG;
    config.graph.kind = bag::NgramKind::kToken;
    config.graph.n = 1;
    config.graph.similarity = graph::GraphSimilarity::kValue;
    return config;
  }

  /// The configuration behind golden_lda_v1.snap. Both test tweets were
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

TEST_F(GoldenSnapshotTest, CommittedV1FixtureWarmStartsBitIdentically) {
  const std::string path = GoldenPath();
  ASSERT_TRUE(std::filesystem::exists(path)) << path << " missing";

  // The committed bytes must really be version 1 — the whole point is that
  // a reader from the v2 era keeps loading them.
  {
    std::ifstream in(path, std::ios::binary);
    std::string magic(snapshot::kMagicSize, '\0');
    in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    ASSERT_EQ(magic, std::string(snapshot::kMagic, snapshot::kMagicSize));
  }

  auto cold = ColdTrain();
  const double cat = cold->Score(ego_, test_cat_, ctx_);
  const double stock = cold->Score(ego_, test_stock_, ctx_);
  // Sanity: the fixture world separates the themes.
  EXPECT_GT(cat, stock);

  auto restored = MakeEngine(config_);
  Status load = restored->LoadSnapshot(path, ctx_);
  ASSERT_TRUE(load.ok()) << load.ToString();
  ASSERT_TRUE(restored->BuildUser(ego_, train_, ctx_).ok());  // no-op
  EXPECT_EQ(restored->Score(ego_, test_cat_, ctx_), cat);
  EXPECT_EQ(restored->Score(ego_, test_stock_, ctx_), stock);

  // The mmap path accepts the v1 file too (resident fallback inside
  // OpenMapped) and scores identically.
  EngineContext mmap_ctx = ctx_;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  auto mapped = MakeEngine(config_);
  Status open = mapped->OpenMapped(path, mmap_ctx);
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_EQ(mapped->Score(ego_, test_cat_, mmap_ctx), cat);
  EXPECT_EQ(mapped->Score(ego_, test_stock_, mmap_ctx), stock);
}

TEST_F(GoldenSnapshotTest, GraphAndTopicV1FixturesWarmStartToPinnedScores) {
  // Bit patterns the writing revision's engines scored; the stock tweet
  // shares no term with ego's cat retweets, so both families score it 0.
  struct Pinned {
    const char* file;
    ModelConfig config;
    uint64_t cat;
    uint64_t stock;
  };
  const Pinned pinned[] = {
      {"golden_tng_v1.snap", TngConfig(), 0x3f94141414141415ULL, 0},
      {"golden_lda_v1.snap", LdaConfig(), 0x3fefefdf1c812f1bULL, 0},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.file);
    const std::string path = FixturePath(p.file);
    ASSERT_TRUE(std::filesystem::exists(path)) << path << " missing";
    ASSERT_EQ(Magic(path), std::string(snapshot::kMagic, snapshot::kMagicSize));
    ExpectWarmStartsScore(p.config, path, FromBits(p.cat), FromBits(p.stock));
  }
}

TEST_F(GoldenSnapshotTest, V1TermTheCorpusNeverProducesFailsTheOpen) {
  // The fixture world's most frequent token, "cat", filtered as a stop
  // word: ego's persisted vocabulary has it, the corpus dictionary does
  // not, so the v1 adapter cannot map it to a gram in either residency.
  std::vector<TweetId> all(world_.num_tweets());
  for (TweetId id = 0; id < all.size(); ++id) all[id] = id;
  const PreprocessedCorpus stopped(world_, all, /*stop_top_k=*/1);
  ASSERT_TRUE(stopped.stop_filter().IsStop("cat"));
  EngineContext ctx = ctx_;
  ctx.pre = &stopped;
  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mmap" : "resident");
    auto engine = MakeEngine(config_);
    Status open = mapped ? engine->OpenMapped(GoldenPath(), ctx)
                         : engine->LoadSnapshot(GoldenPath(), ctx);
    EXPECT_EQ(open.code(), StatusCode::kFailedPrecondition)
        << open.ToString();
    EXPECT_NE(open.message().find("\"cat\""), std::string::npos)
        << open.ToString();
  }
}

TEST_F(GoldenSnapshotTest, FixtureResavesAsV2AndStillScoresIdentically) {
  // Migration path, for every family: warm-start the committed v1 fixture
  // through OpenMapped (which opens it resident, so saving from it stays
  // legal), re-save — which writes microrec.snap/2 — and serve the copy
  // mapped: end to end, still bit-identical.
  const std::pair<const char*, ModelConfig> fixtures[] = {
      {"golden_tn_v1.snap", config_},
      {"golden_tng_v1.snap", TngConfig()},
      {"golden_lda_v1.snap", LdaConfig()},
  };
  EngineContext mmap_ctx = ctx_;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  for (const auto& [file, config] : fixtures) {
    SCOPED_TRACE(file);
    const std::string path = FixturePath(file);
    if (!std::filesystem::exists(path)) {
      GTEST_SKIP() << path << " missing";
    }
    auto v1 = MakeEngine(config);
    Status open = v1->OpenMapped(path, mmap_ctx);
    ASSERT_TRUE(open.ok()) << open.ToString();
    const double cat = v1->Score(ego_, test_cat_, mmap_ctx);
    const double stock = v1->Score(ego_, test_stock_, mmap_ctx);

    const std::string v2_path =
        testutil::UniqueTempDir("microrec_golden_v2") + ".snap";
    Status save = v1->SaveSnapshot(v2_path, mmap_ctx);
    ASSERT_TRUE(save.ok()) << save.ToString();
    EXPECT_EQ(Magic(v2_path),
              std::string(snapshot::kMagicV2, snapshot::kMagicSize));
    ExpectWarmStartsScore(config, v2_path, cat, stock);
    std::error_code ec;
    std::filesystem::remove(v2_path, ec);
  }
}

}  // namespace
}  // namespace microrec::rec
