// Cross-mode bit-identity: the mmap serving mode (Engine::OpenMapped over a
// microrec.snap/2 file) must rank byte-identically to the resident mode
// (LoadSnapshot) for every model family, at one scoring thread and at
// eight — EXPECT_EQ on doubles, no tolerance. Also pins the mapped-mode
// contracts around it: mapped engines refuse SaveSnapshot, and
// InvalidateUser + BuildUser rebuilds a user in place. v1 files opening
// resident inside OpenMapped is pinned by golden_snapshot_test.cc.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "rec/engine.h"
#include "rec/ranker.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "temp_dir.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

// The miniature cats-vs-stocks world of engine_snapshot_test.cc, kept
// structurally identical so snapshots here exercise the same shapes.
class EngineMmapFixture : public ::testing::Test {
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
    };
    const char* stock_texts[] = {
        "stocks rally as markets open higher",
        "bond yields fall after rate decision",
        "tech stocks lead the market rebound",
        "investors rotate into value funds",
    };
    corpus::Timestamp t = 0;
    for (const char* text : cat_texts) {
      candidates_.push_back(*world_.AddTweet(cats_, t += 10, text));
    }
    for (const char* text : stock_texts) {
      candidates_.push_back(*world_.AddTweet(stocks_, t += 10, text));
    }
    rival_ = world_.AddUser("rival");
    ASSERT_TRUE(world_.graph().AddFollow(rival_, stocks_).ok());
    for (int i = 0; i < 3; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", candidates_[i]);
      (void)*world_.AddTweet(rival_, t += 10, "", candidates_[4 + i]);
    }
    candidates_.push_back(*world_.AddTweet(
        cats_, t += 10, "my sleepy cat naps in the warm sun"));
    candidates_.push_back(*world_.AddTweet(
        stocks_, t += 10, "bond yields rise as tech stocks slip today"));
    world_.Finalize();

    pre_ = std::make_unique<PreprocessedCorpus>(
        world_, std::vector<TweetId>{}, /*stop_top_k=*/0);

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
    ctx_.snapshot_codec = snapshot::SnapshotCodec::kCompressed;

    dir_ = testutil::UniqueTempDir("microrec_engine_mmap");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static ModelConfig SmallConfig(ModelKind kind) {
    ModelConfig config;
    config.kind = kind;
    switch (kind) {
      case ModelKind::kTN:
        config.bag.kind = bag::NgramKind::kToken;
        config.bag.n = 1;
        config.bag.weighting = bag::Weighting::kTFIDF;
        config.bag.aggregation = bag::Aggregation::kCentroid;
        config.bag.similarity = bag::BagSimilarity::kCosine;
        break;
      case ModelKind::kCN:
        config.bag.kind = bag::NgramKind::kChar;
        config.bag.n = 3;
        config.bag.weighting = bag::Weighting::kTF;
        config.bag.aggregation = bag::Aggregation::kSum;
        config.bag.similarity = bag::BagSimilarity::kGeneralizedJaccard;
        break;
      case ModelKind::kTNG:
        config.graph.kind = bag::NgramKind::kToken;
        config.graph.n = 1;
        config.graph.similarity = graph::GraphSimilarity::kValue;
        break;
      case ModelKind::kCNG:
        config.graph.kind = bag::NgramKind::kChar;
        config.graph.n = 3;
        config.graph.similarity = graph::GraphSimilarity::kContainment;
        break;
      case ModelKind::kHLDA:
        config.topic.iterations = 300;
        config.topic.levels = 3;
        config.topic.alpha = 2.0;
        config.topic.beta = 0.1;
        config.topic.pooling = corpus::Pooling::kNone;
        break;
      default:  // LDA / LLDA / HDP / BTM / PLSA
        config.topic.num_topics = 4;
        config.topic.iterations = 500;
        config.topic.pooling = corpus::Pooling::kNone;
        config.topic.beta = 0.01;
        break;
    }
    return config;
  }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name + ".snap";
  }

  /// Trains `config`, builds both users, saves a snapshot under `ctx`'s
  /// codec, and returns its path.
  std::string TrainAndSave(const ModelConfig& config, const EngineContext& ctx,
                           const std::string& tag) {
    auto engine = MakeEngine(config);
    EXPECT_TRUE(engine->Prepare(ctx).ok());
    for (UserId u : users_) {
      EXPECT_TRUE(engine->BuildUser(u, ctx.train_set(u), ctx).ok());
    }
    const std::string path = Path(tag);
    EXPECT_TRUE(engine->SaveSnapshot(path, ctx).ok());
    return path;
  }

  /// Ranks every user against the full candidate list with `threads`
  /// scoring threads under the canonical tie-break protocol.
  std::vector<std::vector<RankedItem>> RankAll(Engine* engine,
                                               const EngineContext& ctx,
                                               size_t threads) {
    std::unique_ptr<ThreadPool> pool;
    RankerOptions options;
    options.shard_size = 4;  // several shards even on this tiny world
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
    }
    BatchRanker ranker(engine, &ctx, options);
    Rng tie_rng(ctx.seed, kTieBreakStream);
    std::vector<std::vector<RankedItem>> rankings;
    for (UserId u : users_) {
      Result<std::vector<RankedItem>> ranked =
          ranker.Rank(u, candidates_, &tie_rng);
      EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
      rankings.push_back(ranked.ok() ? *ranked : std::vector<RankedItem>{});
    }
    return rankings;
  }

  static void ExpectSameRankings(
      const std::vector<std::vector<RankedItem>>& expected,
      const std::vector<std::vector<RankedItem>>& got,
      const std::string& tag) {
    SCOPED_TRACE(tag);
    ASSERT_EQ(expected.size(), got.size());
    for (size_t user = 0; user < expected.size(); ++user) {
      ASSERT_EQ(expected[user].size(), got[user].size()) << "user " << user;
      for (size_t i = 0; i < expected[user].size(); ++i) {
        EXPECT_EQ(expected[user][i].tweet, got[user][i].tweet)
            << "user " << user << " rank " << i;
        EXPECT_EQ(expected[user][i].score, got[user][i].score)
            << "user " << user << " rank " << i;
        EXPECT_EQ(expected[user][i].index, got[user][i].index)
            << "user " << user << " rank " << i;
      }
    }
  }

  /// The heart of the battery: resident restore and mmap open of the same
  /// v2 snapshot must produce identical rankings at 1 and 8 threads.
  void ExpectCrossModeBitIdentity(ModelKind kind) {
    const std::string tag(ModelKindName(kind));
    SCOPED_TRACE(tag);
    const ModelConfig config = SmallConfig(kind);
    const std::string path = TrainAndSave(config, ctx_, tag);

    auto resident = MakeEngine(config);
    Status load = resident->LoadSnapshot(path, ctx_);
    ASSERT_TRUE(load.ok()) << load.ToString();

    EngineContext mmap_ctx = ctx_;
    mmap_ctx.serve_mode = ServeMode::kMmap;
    auto mapped = MakeEngine(config);
    Status open = mapped->OpenMapped(path, mmap_ctx);
    ASSERT_TRUE(open.ok()) << open.ToString();
    // BuildUser must be a no-op for persisted users in both modes.
    for (UserId u : users_) {
      ASSERT_TRUE(resident->BuildUser(u, ctx_.train_set(u), ctx_).ok());
      ASSERT_TRUE(mapped->BuildUser(u, mmap_ctx.train_set(u), mmap_ctx).ok());
    }

    for (size_t threads : {size_t{1}, size_t{8}}) {
      auto expected = RankAll(resident.get(), ctx_, threads);
      auto got = RankAll(mapped.get(), mmap_ctx, threads);
      ExpectSameRankings(expected, got,
                         tag + "-threads" + std::to_string(threads));
    }
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_, rival_train_;
  std::vector<UserId> users_;
  std::vector<TweetId> candidates_;
  EngineContext ctx_;
  UserId ego_ = 0, cats_ = 0, stocks_ = 0, rival_ = 0;
  std::string dir_;
};

TEST_F(EngineMmapFixture, BagFamiliesRankBitIdenticallyAcrossModes) {
  ExpectCrossModeBitIdentity(ModelKind::kTN);
  ExpectCrossModeBitIdentity(ModelKind::kCN);
}

TEST_F(EngineMmapFixture, GraphFamiliesRankBitIdenticallyAcrossModes) {
  ExpectCrossModeBitIdentity(ModelKind::kTNG);
  ExpectCrossModeBitIdentity(ModelKind::kCNG);
}

TEST_F(EngineMmapFixture, TopicFamiliesRankBitIdenticallyAcrossModes) {
  ExpectCrossModeBitIdentity(ModelKind::kLDA);
  ExpectCrossModeBitIdentity(ModelKind::kBTM);
}

TEST_F(EngineMmapFixture, TinyMappedUserCacheStaysBitIdentical) {
  // A cache of one forces eviction and re-materialization between the two
  // users on every pass; rankings must not notice.
  const ModelConfig config = SmallConfig(ModelKind::kLDA);
  const std::string path = TrainAndSave(config, ctx_, "tiny_cache");

  auto resident = MakeEngine(config);
  ASSERT_TRUE(resident->LoadSnapshot(path, ctx_).ok());

  EngineContext mmap_ctx = ctx_;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  mmap_ctx.mapped_user_cache = 1;
  auto mapped = MakeEngine(config);
  ASSERT_TRUE(mapped->OpenMapped(path, mmap_ctx).ok());

  for (int pass = 0; pass < 3; ++pass) {
    auto expected = RankAll(resident.get(), ctx_, 1);
    auto got = RankAll(mapped.get(), mmap_ctx, 1);
    ExpectSameRankings(expected, got, "pass" + std::to_string(pass));
  }
}

TEST_F(EngineMmapFixture, MappedEnginesRefuseSaveSnapshot) {
  for (ModelKind kind :
       {ModelKind::kTN, ModelKind::kTNG, ModelKind::kLDA}) {
    SCOPED_TRACE(ModelKindName(kind));
    const ModelConfig config = SmallConfig(kind);
    const std::string path =
        TrainAndSave(config, ctx_, "ro_" + std::string(ModelKindName(kind)));
    EngineContext mmap_ctx = ctx_;
    mmap_ctx.serve_mode = ServeMode::kMmap;
    auto mapped = MakeEngine(config);
    ASSERT_TRUE(mapped->OpenMapped(path, mmap_ctx).ok());
    Status save = mapped->SaveSnapshot(Path("readonly_out"), mmap_ctx);
    EXPECT_EQ(save.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(save.message().find("read-only"), std::string::npos)
        << save.ToString();
  }
}

TEST_F(EngineMmapFixture, InvalidateAndRebuildWorksInMappedMode) {
  const ModelConfig config = SmallConfig(ModelKind::kTN);
  const std::string path = TrainAndSave(config, ctx_, "invalidate");

  auto resident = MakeEngine(config);
  ASSERT_TRUE(resident->LoadSnapshot(path, ctx_).ok());
  EngineContext mmap_ctx = ctx_;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  auto mapped = MakeEngine(config);
  ASSERT_TRUE(mapped->OpenMapped(path, mmap_ctx).ok());

  // Invalidate in both modes, rebuild from the train set, and compare: the
  // rebuilt profile must score identically to the resident rebuild.
  resident->InvalidateUser(ego_);
  mapped->InvalidateUser(ego_);
  ASSERT_TRUE(resident->BuildUser(ego_, train_, ctx_).ok());
  ASSERT_TRUE(mapped->BuildUser(ego_, train_, mmap_ctx).ok());
  ExpectSameRankings(RankAll(resident.get(), ctx_, 1),
                     RankAll(mapped.get(), mmap_ctx, 1), "after_rebuild");
}

TEST_F(EngineMmapFixture, OpenMappedOnMissingFileIsAnError) {
  EngineContext mmap_ctx = ctx_;
  mmap_ctx.serve_mode = ServeMode::kMmap;
  auto mapped = MakeEngine(SmallConfig(ModelKind::kTN));
  EXPECT_FALSE(mapped->OpenMapped(Path("never_written"), mmap_ctx).ok());
}

}  // namespace
}  // namespace microrec::rec
