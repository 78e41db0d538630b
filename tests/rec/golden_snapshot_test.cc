// Backward compatibility against a *committed* v1 fixture: a tiny
// microrec.snap/1 file checked into tests/rec/testdata/, written by the
// code that introduced the format. The v2-capable reader must warm-start
// it bit-identically to a cold-trained engine — both through LoadSnapshot
// and through OpenMapped (which falls back to resident for v1) — so no
// future codec change can silently orphan already-trained snapshots.
//
// Regenerate the fixture (only when the *training* pipeline changes
// behavior on purpose; never for a codec change, that's the point):
//   MICROREC_REGEN_GOLDEN=1 ./rec_test --gtest_filter='GoldenSnapshot*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
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

std::string GoldenPath() {
  return std::string(MICROREC_TEST_SOURCE_DIR) +
         "/rec/testdata/golden_tn_v1.snap";
}

/// The frozen world behind the fixture. Everything here is deterministic —
/// corpus construction, tokenization, TF-IDF training — so the fixture can
/// be regenerated byte-identically by the code revision that wrote it.
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
    // The fixture is v1 by construction; keep the context's save codec raw
    // so a regeneration cannot accidentally write a v2 file.
    ctx_.snapshot_codec = snapshot::SnapshotCodec::kRaw;

    config_.kind = ModelKind::kTN;
    config_.bag.kind = bag::NgramKind::kToken;
    config_.bag.n = 1;
    config_.bag.weighting = bag::Weighting::kTFIDF;
    config_.bag.aggregation = bag::Aggregation::kCentroid;
    config_.bag.similarity = bag::BagSimilarity::kCosine;
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
  if (std::getenv("MICROREC_REGEN_GOLDEN") != nullptr) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    auto engine = ColdTrain();
    ASSERT_TRUE(engine->SaveSnapshot(path, ctx_).ok());
    fprintf(stderr, "regenerated golden fixture: %s\n", path.c_str());
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " missing; run with MICROREC_REGEN_GOLDEN=1 to create it";

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

TEST_F(GoldenSnapshotTest, FixtureResavesAsV2AndStillScoresIdentically) {
  // Migration path: load the committed v1 fixture, re-save compressed, and
  // serve the v2 copy mapped — end to end, still bit-identical.
  const std::string path = GoldenPath();
  if (!std::filesystem::exists(path)) {
    GTEST_SKIP() << path << " missing";
  }
  auto restored = MakeEngine(config_);
  ASSERT_TRUE(restored->LoadSnapshot(path, ctx_).ok());
  const double cat = restored->Score(ego_, test_cat_, ctx_);
  const double stock = restored->Score(ego_, test_stock_, ctx_);

  const std::string v2_path =
      testutil::UniqueTempDir("microrec_golden_v2") + ".snap";
  EngineContext v2_ctx = ctx_;
  v2_ctx.snapshot_codec = snapshot::SnapshotCodec::kCompressed;
  ASSERT_TRUE(restored->SaveSnapshot(v2_path, v2_ctx).ok());

  EngineContext mmap_ctx = v2_ctx;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  auto mapped = MakeEngine(config_);
  Status open = mapped->OpenMapped(v2_path, mmap_ctx);
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_EQ(mapped->Score(ego_, test_cat_, mmap_ctx), cat);
  EXPECT_EQ(mapped->Score(ego_, test_stock_, mmap_ctx), stock);
  std::error_code ec;
  std::filesystem::remove(v2_path, ec);
}

}  // namespace
}  // namespace microrec::rec
