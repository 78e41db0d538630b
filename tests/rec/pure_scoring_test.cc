// Scoring a candidate is a read-only use of the user model for the bag and
// graph families (TN, CN, TNG, CNG): serving leaves every persisted user row
// byte-identical, and a candidate's score does not depend on which
// candidates were scored before it, in what order, or on how many threads
// (DESIGN.md §9). Topic scores, which still depend on call order, are
// pinned in a fixed order, cold-trained and reopened.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "load/workload.h"
#include "obs/metrics.h"
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
    pre_ = new PreprocessedCorpus(dataset_->corpus,
                                  eval::StopBasis(dataset_->corpus, *cohort_),
                                  eval::kStopTopK);
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

// Bag and graph rows and the topic vocab section hold gram ids of the
// corpus they were saved over. A snapshot saved over the corpus without a
// stop list names another dictionary than the corpus with the 100 stop
// words filtered: opened over the latter, both residencies refuse it,
// naming both fingerprints. Opened over the corpus it was saved over, it
// scores as the saving engine did (the LDA engine, which folds candidates
// in from its generator, in the same call order).
TEST_F(PureScoringFixture, SnapshotOverAnotherDictionaryIsRejected) {
  const PreprocessedCorpus unfiltered(dataset_->corpus, {}, 0);
  ASSERT_GT(pre_->stop_filter().size(), 0u);
  for (const ModelConfig& config :
       {BagModel(ModelKind::kTN, 1, bag::Weighting::kTF,
                 bag::BagSimilarity::kCosine),
        GraphModel(ModelKind::kTNG, 1),
        EnumerateConfigs(ModelKind::kLDA).front()}) {
    SCOPED_TRACE(config.ToString());
    EngineContext saving_ctx = runner_->MakeContext(config, Source::kR);
    saving_ctx.pre = &unfiltered;
    const std::string path = dir_ + "/unfiltered.snap";
    std::unique_ptr<Engine> saved = Trained(config, saving_ctx, Users());
    ASSERT_TRUE(saved->SaveSnapshot(path, saving_ctx).ok());

    const EngineContext ctx = runner_->MakeContext(config, Source::kR);
    const uint64_t saved_fingerprint =
        unfiltered.Grams(bag::NgramKind::kToken, 1).fingerprint();
    const uint64_t serving_fingerprint =
        pre_->Grams(bag::NgramKind::kToken, 1).fingerprint();
    ASSERT_NE(saved_fingerprint, serving_fingerprint);
    for (bool mapped : {false, true}) {
      SCOPED_TRACE(mapped ? "mmap" : "resident");
      std::unique_ptr<Engine> engine = MakeEngine(config);
      const Status open = mapped ? engine->OpenMapped(path, ctx)
                                 : engine->LoadSnapshot(path, ctx);
      EXPECT_EQ(open.code(), StatusCode::kFailedPrecondition)
          << open.ToString();
      for (const std::string& part :
           {path, std::string("fingerprint"),
            std::to_string(saved_fingerprint),
            std::to_string(serving_fingerprint)}) {
        EXPECT_NE(open.message().find(part), std::string::npos)
            << open.ToString();
      }
    }

    for (bool mapped : {false, true}) {
      SCOPED_TRACE(mapped ? "mmap over the saving corpus"
                          : "resident over the saving corpus");
      std::unique_ptr<Engine> engine = MakeEngine(config);
      const Status open = mapped ? engine->OpenMapped(path, saving_ctx)
                                 : engine->LoadSnapshot(path, saving_ctx);
      ASSERT_TRUE(open.ok()) << open.ToString();
      for (UserId u : Users()) {
        for (TweetId d : Candidates(u)) {
          EXPECT_EQ(Bits(engine->Score(u, d, saving_ctx)),
                    Bits(saved->Score(u, d, saving_ctx)));
        }
      }
    }
  }
}

// Serving clients share one corpus and may first ask for a gram table at
// the same time: eight threads, each preparing and scoring through its own
// engine, get the same table, built once, and score alike.
TEST_F(PureScoringFixture, ConcurrentFirstUseBuildsOneGramTable) {
  const PreprocessedCorpus fresh(dataset_->corpus, {}, 0);
  const ModelConfig config = BagModel(
      ModelKind::kTN, 1, bag::Weighting::kTFIDF, bag::BagSimilarity::kCosine);
  EngineContext ctx = runner_->MakeContext(config, Source::kR);
  ctx.pre = &fresh;
  for (UserId u : Users()) (void)ctx.train_set(u);  // cached: read-only now
  obs::Histogram* builds = obs::MetricsRegistry::Global().GetHistogram(
      "rec.preprocessed.featurize_seconds");
  const uint64_t builds_before = builds->count();

  constexpr size_t kThreads = 8;
  std::vector<const GramTable*> tables(kThreads);
  std::vector<std::vector<uint64_t>> bits(kThreads);
  std::atomic<size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();  // start together
      std::unique_ptr<Engine> engine = Trained(config, ctx, Users());
      tables[t] = &fresh.Grams(bag::NgramKind::kToken, 1);
      for (UserId u : Users()) {
        for (TweetId d : Candidates(u)) {
          bits[t].push_back(Bits(engine->Score(u, d, ctx)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds->count() - builds_before, 1u);
  ASSERT_FALSE(bits[0].empty());
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]);
    EXPECT_EQ(bits[t], bits[0]);
  }
}

// One FNV-1a hash of the bits of every (user, candidate) score for each bag
// and graph configuration EnumerateConfigs yields, recorded before the
// models moved from per-user string vocabularies to corpus gram ids. Rocchio
// configurations need negatives, so they train on source RE; the rest on R.
// The 12 graph VS/NS hashes were re-recorded when graphs moved to sorted
// edge arrays: their sums now run in key order, and each `update` weight is
// the exact mean rather than a running average's rounding of it.
struct PinnedScores {
  const char* config;
  uint64_t hash;
};
constexpr PinnedScores kPinnedScores[] = {
    {"TN n=1 BF Sum CS", 0x5ec36c8780940170ULL},
    {"TN n=1 BF Sum JS", 0x3a23182a9e465d3dULL},
    {"TN n=1 TF Sum CS", 0xf652606d0de9f42dULL},
    {"TN n=1 TF Sum GJS", 0x27c9a5aa8f70dee2ULL},
    {"TN n=1 TF Cen. CS", 0xcb3ecaaa180426ecULL},
    {"TN n=1 TF Cen. GJS", 0x754df40b5dad4079ULL},
    {"TN n=1 TF Ro. CS", 0x90b61ae41d17eb8eULL},
    {"TN n=1 TF-IDF Sum CS", 0x4076e86d4214ca2dULL},
    {"TN n=1 TF-IDF Sum GJS", 0x63e4b88d90166d08ULL},
    {"TN n=1 TF-IDF Cen. CS", 0x0899556dd4da2f5aULL},
    {"TN n=1 TF-IDF Cen. GJS", 0x04b01dff1f87ccafULL},
    {"TN n=1 TF-IDF Ro. CS", 0x4e30ffcaa8d112b7ULL},
    {"TN n=2 BF Sum CS", 0x766880b5119ffba6ULL},
    {"TN n=2 BF Sum JS", 0x7e0f3f515494a30fULL},
    {"TN n=2 TF Sum CS", 0x54b18d7acd274ec4ULL},
    {"TN n=2 TF Sum GJS", 0x7eb1baeb334e3826ULL},
    {"TN n=2 TF Cen. CS", 0xed37367998775458ULL},
    {"TN n=2 TF Cen. GJS", 0x4cf3ba8a64f1b1bbULL},
    {"TN n=2 TF Ro. CS", 0xc3999ed4851b4b0cULL},
    {"TN n=2 TF-IDF Sum CS", 0xcb1415feef16c8a6ULL},
    {"TN n=2 TF-IDF Sum GJS", 0x741cacfeedc58a64ULL},
    {"TN n=2 TF-IDF Cen. CS", 0x374afc6f1ad47df5ULL},
    {"TN n=2 TF-IDF Cen. GJS", 0x4807a4ff2f3273a7ULL},
    {"TN n=2 TF-IDF Ro. CS", 0x7f12b543aaa130c5ULL},
    {"TN n=3 BF Sum CS", 0x755d03cb73275b42ULL},
    {"TN n=3 BF Sum JS", 0xb3bad72841f53230ULL},
    {"TN n=3 TF Sum CS", 0x84b45e32f602eda5ULL},
    {"TN n=3 TF Sum GJS", 0x0fd6355a66148d38ULL},
    {"TN n=3 TF Cen. CS", 0xc438ff3452f8009eULL},
    {"TN n=3 TF Cen. GJS", 0x6dc4ee70aa48c835ULL},
    {"TN n=3 TF Ro. CS", 0x85021607ad4ce274ULL},
    {"TN n=3 TF-IDF Sum CS", 0x67861e108e62fb2dULL},
    {"TN n=3 TF-IDF Sum GJS", 0xc6469dc46403c7d3ULL},
    {"TN n=3 TF-IDF Cen. CS", 0x57104a5b78080630ULL},
    {"TN n=3 TF-IDF Cen. GJS", 0xb32b8e3dfd83ad3aULL},
    {"TN n=3 TF-IDF Ro. CS", 0x97a205797153f952ULL},
    {"CN n=2 BF Sum CS", 0x6727485605e4ac20ULL},
    {"CN n=2 BF Sum JS", 0x215ef867e7d6cf40ULL},
    {"CN n=2 TF Sum CS", 0xb97719e4416835b1ULL},
    {"CN n=2 TF Sum GJS", 0x1120dd96f81a7256ULL},
    {"CN n=2 TF Cen. CS", 0x84e3b08df7e80f8aULL},
    {"CN n=2 TF Cen. GJS", 0x59089a24ac438bb3ULL},
    {"CN n=2 TF Ro. CS", 0x26385e60cac8fbfeULL},
    {"CN n=3 BF Sum CS", 0x30011a83004d3b17ULL},
    {"CN n=3 BF Sum JS", 0xb25119eb2cc1c938ULL},
    {"CN n=3 TF Sum CS", 0xfc8f6ef1e9c9e978ULL},
    {"CN n=3 TF Sum GJS", 0x204ff5dd9a68005bULL},
    {"CN n=3 TF Cen. CS", 0x1b09c0acdddc61ffULL},
    {"CN n=3 TF Cen. GJS", 0x6731c7447a1e73e3ULL},
    {"CN n=3 TF Ro. CS", 0xf997a8e49f275060ULL},
    {"CN n=4 BF Sum CS", 0xa07124a3bf13bec4ULL},
    {"CN n=4 BF Sum JS", 0x5792d7a7433d5da6ULL},
    {"CN n=4 TF Sum CS", 0xeebe9f772ed5d11fULL},
    {"CN n=4 TF Sum GJS", 0x6ae93b8d4092ad56ULL},
    {"CN n=4 TF Cen. CS", 0xe36c8328f39d1086ULL},
    {"CN n=4 TF Cen. GJS", 0x0720ecb9ec439275ULL},
    {"CN n=4 TF Ro. CS", 0x746c6f9e043ba0a0ULL},
    {"TNG n=1 CoS", 0x9550f6cde2cd8302ULL},
    {"TNG n=1 VS", 0xbaa7ceb2829907e7ULL},
    {"TNG n=1 NS", 0x56f509ebe8ee59c5ULL},
    {"TNG n=2 CoS", 0x34ecbe665583b6aeULL},
    {"TNG n=2 VS", 0x9b53363ecdd7c437ULL},
    {"TNG n=2 NS", 0x2bb9dd6b6fbd6718ULL},
    {"TNG n=3 CoS", 0x301f49fb7c825c98ULL},
    {"TNG n=3 VS", 0x4f63ba5e09419ba5ULL},
    {"TNG n=3 NS", 0x4025575d48485546ULL},
    {"CNG n=2 CoS", 0x89ce2f05c741a712ULL},
    {"CNG n=2 VS", 0x066d3b5166273abeULL},
    {"CNG n=2 NS", 0x0ad563800b0aa855ULL},
    {"CNG n=3 CoS", 0x51b20748416e3fd8ULL},
    {"CNG n=3 VS", 0x783442e0cd13b3e7ULL},
    {"CNG n=3 NS", 0xdb4cd82dbfae4a50ULL},
    {"CNG n=4 CoS", 0x6c4fb1af66cc7ba4ULL},
    {"CNG n=4 VS", 0xa7f70f2839900299ULL},
    {"CNG n=4 NS", 0x3c202cd906fb04e3ULL},
};

TEST_F(PureScoringFixture, EveryBagAndGraphConfigurationScoresAsPinned) {
  std::vector<ModelConfig> configs;
  for (ModelKind kind :
       {ModelKind::kTN, ModelKind::kCN, ModelKind::kTNG, ModelKind::kCNG}) {
    std::vector<ModelConfig> more = EnumerateConfigs(kind);
    configs.insert(configs.end(), more.begin(), more.end());
  }
  ASSERT_EQ(configs.size(), std::size(kPinnedScores));  // 36 + 21 + 9 + 9
  for (size_t i = 0; i < configs.size(); ++i) {
    const ModelConfig& config = configs[i];
    ASSERT_EQ(config.ToString(), kPinnedScores[i].config);
    const Source source =
        config.IsValidForSource(false) ? Source::kR : Source::kRE;
    const EngineContext ctx = runner_->MakeContext(config, source);
    std::unique_ptr<Engine> engine = Trained(config, ctx, Users());
    uint64_t hash = load::kFnvOffsetBasis;
    for (UserId u : Users()) {
      for (TweetId d : Candidates(u)) {
        hash = load::FnvMixU64(hash, Bits(engine->Score(u, d, ctx)));
      }
    }
    EXPECT_EQ(hash, kPinnedScores[i].hash) << config.ToString();
  }
}

// The topic configurations the pins below cover: the first two of LDA,
// LLDA, HDP, HLDA and BTM that are valid for source R, and PLSA at its
// defaults.
std::vector<ModelConfig> PinnedTopicConfigs() {
  std::vector<ModelConfig> configs;
  for (ModelKind kind : {ModelKind::kLDA, ModelKind::kLLDA, ModelKind::kHDP,
                         ModelKind::kHLDA, ModelKind::kBTM}) {
    size_t taken = 0;
    for (const ModelConfig& config : EnumerateConfigs(kind)) {
      if (taken == 2) break;
      if (!config.IsValidForSource(false)) continue;
      configs.push_back(config);
      ++taken;
    }
  }
  ModelConfig plsa;
  plsa.kind = ModelKind::kPLSA;
  configs.push_back(plsa);
  return configs;
}

// One FNV-1a hash of the bits of every (user, candidate) score, users and
// their test sets in order, for each topic configuration above. The engine
// scores alike cold-trained and reopened resident or mmap from a snapshot
// saved before any candidate was scored, so every reopened score folds the
// candidate in through the persisted vocabulary and generator. Recorded
// while topic engines still interned token strings; ROADMAP item 4(b),
// which draws each fold-in from its own stream, re-records them.
struct PinnedTopicScores {
  const char* config;
  uint64_t hash;
};
constexpr PinnedTopicScores kPinnedTopicScores[] = {
    {"LDA NP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0x0502081f372bc107ULL},
    {"LDA UP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0x1217b2d7644d5fdeULL},
    {"LLDA NP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0xe09efc4a1f8b39e4ULL},
    {"LLDA UP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0x7f6d48fdd8f62c3fULL},
    {"HDP NP #I=1000 a=1.00 b=0.10 g=1.0 Cen.", 0x92b4d7a873984780ULL},
    {"HDP UP #I=1000 a=1.00 b=0.10 g=1.0 Cen.", 0xcac28d22cf08e278ULL},
    {"HLDA UP #I=1000 a=10.0 b=0.10 g=0.5 Cen.", 0x086372ecfd8c09beULL},
    {"HLDA UP #I=1000 a=10.0 b=0.10 g=1.0 Cen.", 0x74ca5815e030e5c5ULL},
    {"BTM NP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0x6fd9970d51548eb6ULL},
    {"BTM UP #T=50 #I=1000 a=1.00 b=0.01 Cen.", 0x208525336324b6f5ULL},
    {"PLSA UP #T=50 #I=1000 b=0.01 Cen.", 0x7c190f16e9e065d0ULL},
};

TEST_F(PureScoringFixture, TopicScoresArePinnedColdAndReopened) {
  const std::vector<ModelConfig> configs = PinnedTopicConfigs();
  ASSERT_EQ(configs.size(), std::size(kPinnedTopicScores));  // 5 x 2 + PLSA
  auto hash_scores = [](Engine* engine, const EngineContext& ctx) {
    uint64_t hash = load::kFnvOffsetBasis;
    for (UserId u : Users()) {
      for (TweetId d : Candidates(u)) {
        hash = load::FnvMixU64(hash, Bits(engine->Score(u, d, ctx)));
      }
    }
    return hash;
  };
  for (size_t i = 0; i < configs.size(); ++i) {
    const ModelConfig& config = configs[i];
    ASSERT_EQ(config.ToString(), kPinnedTopicScores[i].config);
    SCOPED_TRACE(config.ToString());
    const uint64_t pinned = kPinnedTopicScores[i].hash;
    const EngineContext ctx = runner_->MakeContext(config, Source::kR);
    std::unique_ptr<Engine> cold = Trained(config, ctx, Users());
    const std::string path = dir_ + "/topic.snap";
    ASSERT_TRUE(cold->SaveSnapshot(path, ctx).ok());
    EXPECT_EQ(hash_scores(cold.get(), ctx), pinned) << "cold";
    for (bool mapped : {false, true}) {
      std::unique_ptr<Engine> reopened = MakeEngine(config);
      const Status open = mapped ? reopened->OpenMapped(path, ctx)
                                 : reopened->LoadSnapshot(path, ctx);
      ASSERT_TRUE(open.ok()) << open.ToString();
      EXPECT_EQ(hash_scores(reopened.get(), ctx), pinned)
          << (mapped ? "mmap" : "resident");
    }
  }
}

}  // namespace
}  // namespace microrec::rec
