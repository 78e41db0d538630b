// Scoring a candidate is a read-only use of the user model for the bag and
// graph families (TN, CN, TNG, CNG): serving leaves every persisted user row
// byte-identical, and a candidate's score does not depend on which
// candidates were scored before it, in what order, or on how many threads
// (DESIGN.md §9).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "rec/engine.h"
#include "rec/ranker.h"
#include "synth/generator.h"
#include "temp_dir.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

ModelConfig BagModel(ModelKind kind, int n, bag::Weighting weighting,
                     bag::BagSimilarity similarity) {
  ModelConfig config;
  config.kind = kind;
  config.bag.kind =
      kind == ModelKind::kTN ? bag::NgramKind::kToken : bag::NgramKind::kChar;
  config.bag.n = n;
  config.bag.weighting = weighting;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = similarity;
  return config;
}

ModelConfig GraphModel(ModelKind kind, int n) {
  ModelConfig config;
  config.kind = kind;
  config.graph.kind = kind == ModelKind::kTNG ? bag::NgramKind::kToken
                                              : bag::NgramKind::kChar;
  config.graph.n = n;
  config.graph.similarity = graph::GraphSimilarity::kValue;
  return config;
}

// Configurations where a candidate's unseen n-grams carry distinct weights
// or enter order-sensitive sums, so any dependence of their ids on earlier
// queries would show in the score bits.
std::vector<ModelConfig> Configs() {
  return {
      BagModel(ModelKind::kTN, 1, bag::Weighting::kTFIDF,
               bag::BagSimilarity::kCosine),
      BagModel(ModelKind::kTN, 2, bag::Weighting::kTF,
               bag::BagSimilarity::kGeneralizedJaccard),
      BagModel(ModelKind::kCN, 3, bag::Weighting::kTF,
               bag::BagSimilarity::kCosine),
      GraphModel(ModelKind::kTNG, 2),
      GraphModel(ModelKind::kCNG, 3),
  };
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class PureScoringFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::DatasetSpec spec = synth::DatasetSpec::Small();
    spec.seed = 31;
    spec.background_users = 40;
    spec.seekers.count = 3;
    spec.balanced.count = 3;
    spec.producers.count = 2;
    spec.extras.count = 0;
    spec.cohort.seekers = 3;
    spec.cohort.balanced = 3;
    spec.cohort.producers = 2;
    spec.cohort.extra_all = 0;
    spec.cohort.min_retweets = 8;
    dataset_ = new synth::SyntheticDataset(std::move(*GenerateDataset(spec)));
    cohort_ = new corpus::UserCohort(
        corpus::SelectCohort(dataset_->corpus, spec.cohort));
    std::vector<TweetId> stop_basis;
    for (UserId u : cohort_->all) {
      for (TweetId id : dataset_->corpus.PostsOf(u)) stop_basis.push_back(id);
    }
    pre_ = new PreprocessedCorpus(dataset_->corpus, stop_basis, 100);
    runner_ = new eval::ExperimentRunner(pre_, cohort_, eval::RunOptions{});
    ASSERT_TRUE(runner_->Init().ok());
  }

  static void TearDownTestSuite() {
    delete runner_;
    delete pre_;
    delete cohort_;
    delete dataset_;
  }

  void SetUp() override {
    dir_ = testutil::UniqueTempDir("microrec_pure_scoring");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static const std::vector<UserId>& Users() {
    return runner_->GroupUsers(corpus::UserType::kAllUsers);
  }

  static std::vector<TweetId> Candidates(UserId u) {
    return runner_->SplitOf(u).TestSet();
  }

  /// A cold engine with `users` built.
  static std::unique_ptr<Engine> Trained(const ModelConfig& config,
                                         const EngineContext& ctx,
                                         const std::vector<UserId>& users) {
    std::unique_ptr<Engine> engine = MakeEngine(config);
    EXPECT_TRUE(engine->Prepare(ctx).ok());
    for (UserId u : users) {
      EXPECT_TRUE(engine->BuildUser(u, ctx.train_set(u), ctx).ok());
    }
    return engine;
  }

  /// Ranks `candidates` for `u` and returns each candidate's score bits.
  static std::map<TweetId, uint64_t> ScoreBits(
      Engine* engine, const EngineContext& ctx, UserId u,
      const std::vector<TweetId>& candidates, size_t threads) {
    std::unique_ptr<ThreadPool> pool;
    RankerOptions options;
    options.shard_size = 4;  // many shards, so threads interleave
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
    }
    BatchRanker ranker(engine, &ctx, options);
    Result<std::vector<RankedItem>> ranked =
        ranker.Rank(u, candidates, nullptr);
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    std::map<TweetId, uint64_t> bits;
    if (!ranked.ok()) return bits;
    for (const RankedItem& item : *ranked) bits[item.tweet] = Bits(item.score);
    return bits;
  }

  static synth::SyntheticDataset* dataset_;
  static corpus::UserCohort* cohort_;
  static PreprocessedCorpus* pre_;
  static eval::ExperimentRunner* runner_;
  std::string dir_;
};

synth::SyntheticDataset* PureScoringFixture::dataset_ = nullptr;
corpus::UserCohort* PureScoringFixture::cohort_ = nullptr;
PreprocessedCorpus* PureScoringFixture::pre_ = nullptr;
eval::ExperimentRunner* PureScoringFixture::runner_ = nullptr;

// ROADMAP item 4's gate for the bag and graph families: per-user state is
// constant across 10^5 served candidates. Persisted rows carry each user's
// vocabulary (and for bag its document frequencies), so any interning at
// serve time would change the second snapshot.
TEST_F(PureScoringFixture, ServingLeavesEverySnapshotByteIdentical) {
  ASSERT_FALSE(Users().empty());
  for (const ModelConfig& config : Configs()) {
    SCOPED_TRACE(config.ToString());
    const EngineContext ctx = runner_->MakeContext(config, Source::kR);
    std::unique_ptr<Engine> engine = Trained(config, ctx, Users());
    const std::string before = dir_ + "/before.snap";
    const std::string after = dir_ + "/after.snap";
    ASSERT_TRUE(engine->SaveSnapshot(before, ctx).ok());

    // The users' test sets, repeated in shuffled order.
    BatchRanker ranker(engine.get(), &ctx, RankerOptions{});
    Rng shuffle(7);
    size_t served = 0;
    while (served < 100000) {
      std::vector<UserId> users = Users();
      shuffle.Shuffle(users);
      for (UserId u : users) {
        std::vector<TweetId> candidates = Candidates(u);
        shuffle.Shuffle(candidates);
        ASSERT_TRUE(ranker.Rank(u, candidates, nullptr).ok());
        served += candidates.size();
      }
    }
    ASSERT_TRUE(engine->SaveSnapshot(after, ctx).ok());
    const std::string saved = ReadFile(before);
    const std::string resaved = ReadFile(after);
    EXPECT_EQ(saved.size(), resaved.size());
    EXPECT_TRUE(saved == resaved);
  }
}

// One user's candidates ranked five ways must give the same score bits: on
// a fresh engine, after every other user's candidates, in reverse order,
// and at 4 and 8 pool threads.
TEST_F(PureScoringFixture, ScoresIgnoreQueryOrderAndThreadCount) {
  const UserId user = Users().front();
  const std::vector<TweetId> candidates = Candidates(user);
  ASSERT_FALSE(candidates.empty());
  for (const ModelConfig& config : Configs()) {
    SCOPED_TRACE(config.ToString());
    const EngineContext ctx = runner_->MakeContext(config, Source::kR);
    auto fresh_rank = [&](const std::vector<TweetId>& order, size_t threads) {
      return ScoreBits(Trained(config, ctx, {user}).get(), ctx, user, order,
                       threads);
    };
    const std::map<TweetId, uint64_t> fresh = fresh_rank(candidates, 1);

    std::unique_ptr<Engine> busy = Trained(config, ctx, Users());
    for (UserId other : Users()) {
      if (other == user) continue;
      ScoreBits(busy.get(), ctx, other, Candidates(other), 1);
    }
    EXPECT_EQ(ScoreBits(busy.get(), ctx, user, candidates, 1), fresh)
        << "after other users' candidates";

    EXPECT_EQ(fresh_rank({candidates.rbegin(), candidates.rend()}, 1), fresh)
        << "in reverse order";
    EXPECT_EQ(fresh_rank(candidates, 4), fresh) << "at 4 threads";
    EXPECT_EQ(fresh_rank(candidates, 8), fresh) << "at 8 threads";
  }
}

}  // namespace
}  // namespace microrec::rec
