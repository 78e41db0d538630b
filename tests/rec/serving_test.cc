// The degradation ladder end to end: rung 0 serves from a warm snapshot,
// an injected snapshot.load fault pushes queries to the rung-1 bag
// fallback (and increments rec.degraded), and an already-expired deadline
// lands on the rung-2 popularity baseline — which must produce a ranking
// no matter what.
#include "rec/serving.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "temp_dir.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

class ServingFixture : public ::testing::Test {
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
      cat_posts_.push_back(*world_.AddTweet(cats_, t += 10, text));
    }
    for (const char* text : stock_texts) {
      stock_posts_.push_back(*world_.AddTweet(stocks_, t += 10, text));
    }
    rival_ = world_.AddUser("rival");
    ASSERT_TRUE(world_.graph().AddFollow(rival_, stocks_).ok());
    for (int i = 0; i < 3; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", cat_posts_[i]);
      (void)*world_.AddTweet(rival_, t += 10, "", stock_posts_[i]);
    }
    test_cat_ = *world_.AddTweet(cats_, t += 10,
                                 "my sleepy cat naps in the warm sun");
    test_stock_ = *world_.AddTweet(
        stocks_, t += 10, "bond yields rise as tech stocks slip today");
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

    dir_ = testutil::UniqueTempDir("microrec_serving");
    std::filesystem::create_directories(dir_);

    // Train-once: persist the primary engine the recommender will load.
    primary_config_.kind = ModelKind::kTN;
    primary_config_.bag.kind = bag::NgramKind::kToken;
    primary_config_.bag.n = 1;
    primary_config_.bag.weighting = bag::Weighting::kTFIDF;
    primary_config_.bag.aggregation = bag::Aggregation::kCentroid;
    primary_config_.bag.similarity = bag::BagSimilarity::kCosine;
    snapshot_path_ = dir_ + "/primary.snap";
    auto engine = MakeEngine(primary_config_);
    ASSERT_TRUE(engine->Prepare(ctx_).ok());
    ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    ASSERT_TRUE(engine->SaveSnapshot(snapshot_path_, ctx_).ok());
  }

  void TearDown() override {
    resilience::ClearFaults();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServingOptions Options() const {
    ServingOptions options;
    options.primary = primary_config_;
    options.snapshot_path = snapshot_path_;
    return options;
  }

  static uint64_t DegradedCount() {
    return obs::MetricsRegistry::Global().GetCounter("rec.degraded")->value();
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_, rival_train_;
  std::vector<UserId> users_;
  EngineContext ctx_;
  UserId ego_ = 0, cats_ = 0, stocks_ = 0, rival_ = 0;
  std::vector<TweetId> cat_posts_, stock_posts_;
  TweetId test_cat_ = 0, test_stock_ = 0;
  ModelConfig primary_config_;
  std::string snapshot_path_;
  std::string dir_;
};

TEST_F(ServingFixture, PrimaryRungServesFromSnapshot) {
  DegradingRecommender rec(ctx_, Options());
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  EXPECT_EQ(result.rung, ServingRung::kPrimary);
  EXPECT_TRUE(result.degraded_reason.empty()) << result.degraded_reason;
  ASSERT_EQ(result.ranking.size(), 2u);
  EXPECT_EQ(result.ranking[0].tweet, test_cat_);
  EXPECT_GT(result.ranking[0].score, result.ranking[1].score);
  EXPECT_TRUE(rec.primary_status().ok());
}

TEST_F(ServingFixture, InjectedLoadFaultDegradesToBagFallback) {
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender rec(ctx_, Options());
  const uint64_t degraded_before = DegradedCount();
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  resilience::ClearFaults();

  EXPECT_EQ(result.rung, ServingRung::kBagFallback);
  EXPECT_FALSE(result.degraded_reason.empty());
  ASSERT_EQ(result.ranking.size(), 2u);
  // The TN fallback still personalizes: cat post on top.
  EXPECT_EQ(result.ranking[0].tweet, test_cat_);
  EXPECT_FALSE(rec.primary_status().ok());
  EXPECT_EQ(DegradedCount(), degraded_before + 1);
}

TEST_F(ServingFixture, PrimaryLoadFailureIsRememberedAcrossQueries) {
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender rec(ctx_, Options());
  (void)rec.Recommend(ego_, {test_cat_});
  // Faults cleared: a fresh load would now succeed, but the failure was
  // cached — the bad snapshot is not re-read on every query.
  resilience::ClearFaults();
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  EXPECT_EQ(result.rung, ServingRung::kBagFallback);
  EXPECT_FALSE(rec.primary_status().ok());
}

TEST_F(ServingFixture, InjectedLoadFaultDegradesToBagFallbackUnderMmap) {
  // The mmap open runs the same open path, so the fault site covers it too.
  ctx_.serve_mode = ServeMode::kMmap;
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender rec(ctx_, Options());
  const uint64_t degraded_before = DegradedCount();
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  resilience::ClearFaults();

  EXPECT_EQ(result.rung, ServingRung::kBagFallback);
  EXPECT_FALSE(result.degraded_reason.empty());
  ASSERT_EQ(result.ranking.size(), 2u);
  EXPECT_EQ(result.ranking[0].tweet, test_cat_);
  EXPECT_FALSE(rec.primary_status().ok());
  EXPECT_EQ(DegradedCount(), degraded_before + 1);
}

TEST_F(ServingFixture, PrimaryLoadFailureIsRememberedAcrossQueriesUnderMmap) {
  ctx_.serve_mode = ServeMode::kMmap;
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender rec(ctx_, Options());
  (void)rec.Recommend(ego_, {test_cat_});
  resilience::ClearFaults();
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  EXPECT_EQ(result.rung, ServingRung::kBagFallback);
  EXPECT_FALSE(rec.primary_status().ok());
}

TEST_F(ServingFixture, EachWarmStartHitsTheLoadFaultSiteOnce) {
  // Every second hit fires: with one hit per open, the first warm start of
  // each pair succeeds and the second fails, in either residency. Each
  // success counts one warm start and one open of its residency.
  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->value();
  };
  for (ServeMode mode : {ServeMode::kResident, ServeMode::kMmap}) {
    SCOPED_TRACE(ServeModeName(mode));
    ctx_.serve_mode = mode;
    const char* opens = mode == ServeMode::kMmap ? "snapshot.mapped_opens"
                                                 : "snapshot.loads";
    const uint64_t warm_before = counter("snapshot.warm_starts");
    const uint64_t opens_before = counter(opens);
    resilience::ArmFault(resilience::kSiteSnapshotLoad,
                         resilience::FaultSpec{.every_nth = 2});
    DegradingRecommender first(ctx_, Options());
    EXPECT_TRUE(first.Warm().ok());
    DegradingRecommender second(ctx_, Options());
    EXPECT_FALSE(second.Warm().ok());
    resilience::ClearFaults();
    EXPECT_EQ(counter("snapshot.warm_starts"), warm_before + 1);
    EXPECT_EQ(counter(opens), opens_before + 1);
  }
}

TEST_F(ServingFixture, MissingSnapshotDegradesButStillRanks) {
  ServingOptions options = Options();
  options.snapshot_path = dir_ + "/absent.snap";
  DegradingRecommender rec(ctx_, options);
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  EXPECT_EQ(result.rung, ServingRung::kBagFallback);
  ASSERT_EQ(result.ranking.size(), 2u);
  EXPECT_EQ(result.ranking[0].tweet, test_cat_);
}

TEST_F(ServingFixture, ExpiredDeadlineLandsOnPopularityRung) {
  ServingOptions options = Options();
  options.snapshot_path = dir_ + "/absent.snap";
  options.query_deadline_seconds = 1e-9;  // expired before scoring starts
  DegradingRecommender rec(ctx_, options);
  // cat_posts_[0] was retweeted (popularity 1); stock_posts_[3] never was.
  RecommendResult result =
      rec.Recommend(ego_, {stock_posts_[3], cat_posts_[0]});
  EXPECT_EQ(result.rung, ServingRung::kPopularity);
  ASSERT_EQ(result.ranking.size(), 2u);
  EXPECT_EQ(result.ranking[0].tweet, cat_posts_[0]);
  EXPECT_FALSE(result.degraded_reason.empty());
}

TEST_F(ServingFixture, EmptyCandidateListYieldsEmptyRanking) {
  DegradingRecommender rec(ctx_, Options());
  RecommendResult result = rec.Recommend(ego_, {});
  EXPECT_TRUE(result.ranking.empty());
}

TEST_F(ServingFixture, SameSeedServesIdenticalRankings) {
  // Two recommenders built from the same snapshot and seed must agree on
  // every ranked position and score — the old per-query std::sort made
  // tied scores land in unspecified order.
  DegradingRecommender a(ctx_, Options());
  DegradingRecommender b(ctx_, Options());
  const std::vector<TweetId> candidates = {test_stock_, test_cat_,
                                           cat_posts_[3], stock_posts_[3]};
  RecommendResult ra = a.Recommend(ego_, candidates);
  RecommendResult rb = b.Recommend(ego_, candidates);
  ASSERT_EQ(ra.ranking.size(), rb.ranking.size());
  for (size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].tweet, rb.ranking[i].tweet);
    EXPECT_EQ(ra.ranking[i].score, rb.ranking[i].score);
  }
}

TEST_F(ServingFixture, ScoreThreadsDoNotChangeServedRanking) {
  ServingOptions threaded = Options();
  threaded.score_threads = 4;
  DegradingRecommender single(ctx_, Options());
  DegradingRecommender multi(ctx_, threaded);
  const std::vector<TweetId> candidates = {test_stock_, test_cat_,
                                           cat_posts_[3], stock_posts_[3]};
  RecommendResult rs = single.Recommend(ego_, candidates);
  RecommendResult rm = multi.Recommend(ego_, candidates);
  ASSERT_EQ(rs.ranking.size(), rm.ranking.size());
  for (size_t i = 0; i < rs.ranking.size(); ++i) {
    EXPECT_EQ(rs.ranking[i].tweet, rm.ranking[i].tweet);
    EXPECT_EQ(rs.ranking[i].score, rm.ranking[i].score);  // bit-identical
  }
}

TEST_F(ServingFixture, TopKTruncatesPrimaryRanking) {
  ServingOptions options = Options();
  options.top_k = 1;
  DegradingRecommender rec(ctx_, options);
  RecommendResult result = rec.Recommend(ego_, {test_stock_, test_cat_});
  EXPECT_EQ(result.rung, ServingRung::kPrimary);
  ASSERT_EQ(result.ranking.size(), 1u);
  EXPECT_EQ(result.ranking[0].tweet, test_cat_);
}

TEST_F(ServingFixture, TopKTruncatesPopularityRung) {
  ServingOptions options = Options();
  options.snapshot_path = dir_ + "/absent.snap";
  options.query_deadline_seconds = 1e-9;
  options.top_k = 1;
  DegradingRecommender rec(ctx_, options);
  RecommendResult result =
      rec.Recommend(ego_, {stock_posts_[3], cat_posts_[0]});
  EXPECT_EQ(result.rung, ServingRung::kPopularity);
  ASSERT_EQ(result.ranking.size(), 1u);
  EXPECT_EQ(result.ranking[0].tweet, cat_posts_[0]);
}

TEST_F(ServingFixture, ScoreCacheKeepsServedRankingStable) {
  ServingOptions options = Options();
  options.score_cache_capacity = 64;
  DegradingRecommender rec(ctx_, options);
  const std::vector<TweetId> candidates = {test_stock_, test_cat_};
  RecommendResult first = rec.Recommend(ego_, candidates);
  RecommendResult second = rec.Recommend(ego_, candidates);
  ASSERT_EQ(first.ranking.size(), second.ranking.size());
  for (size_t i = 0; i < first.ranking.size(); ++i) {
    EXPECT_EQ(first.ranking[i].tweet, second.ranking[i].tweet);
    EXPECT_EQ(first.ranking[i].score, second.ranking[i].score);
  }
}

TEST_F(ServingFixture, RungCountersSumToQueriesUnderFaultSchedule) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t queries0 = registry.GetCounter("rec.queries")->value();
  const uint64_t primary0 = registry.GetCounter("rec.rung.primary")->value();
  const uint64_t bag0 = registry.GetCounter("rec.rung.bag_fallback")->value();
  const uint64_t pop0 = registry.GetCounter("rec.rung.popularity")->value();
  const std::vector<TweetId> candidates = {test_stock_, test_cat_};

  // 3 healthy queries land on the primary rung.
  {
    DegradingRecommender rec(ctx_, Options());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(rec.Recommend(ego_, candidates).rung, ServingRung::kPrimary);
    }
  }
  // 2 queries against a poisoned snapshot land on the bag fallback (the
  // first trips the fault, the second remembers the failed load).
  {
    resilience::ArmFault(resilience::kSiteSnapshotLoad,
                         resilience::FaultSpec{.every_nth = 1});
    DegradingRecommender rec(ctx_, Options());
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(rec.Recommend(ego_, candidates).rung,
                ServingRung::kBagFallback);
    }
    resilience::ClearFaults();
  }
  // 1 query under an already-expired deadline drops to popularity.
  {
    ServingOptions options = Options();
    options.query_deadline_seconds = 1e-9;
    DegradingRecommender rec(ctx_, options);
    EXPECT_EQ(rec.Recommend(ego_, candidates).rung, ServingRung::kPopularity);
  }

  const uint64_t primary = registry.GetCounter("rec.rung.primary")->value();
  const uint64_t bag = registry.GetCounter("rec.rung.bag_fallback")->value();
  const uint64_t pop = registry.GetCounter("rec.rung.popularity")->value();
  EXPECT_EQ(primary - primary0, 3u);
  EXPECT_EQ(bag - bag0, 2u);
  EXPECT_EQ(pop - pop0, 1u);
  // The rung mix is a partition of all queries served.
  EXPECT_EQ((primary - primary0) + (bag - bag0) + (pop - pop0),
            registry.GetCounter("rec.queries")->value() - queries0);
}

TEST_F(ServingFixture, RungLatencySketchesMatchRungCounters) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t primary0 =
      registry.GetHistogram("rec.latency.primary")->count();
  const uint64_t bag0 =
      registry.GetHistogram("rec.latency.bag_fallback")->count();
  {
    DegradingRecommender rec(ctx_, Options());
    for (int i = 0; i < 4; ++i) {
      (void)rec.Recommend(ego_, {test_stock_, test_cat_});
    }
  }
  {
    resilience::ArmFault(resilience::kSiteSnapshotLoad,
                         resilience::FaultSpec{.every_nth = 1});
    DegradingRecommender rec(ctx_, Options());
    (void)rec.Recommend(ego_, {test_stock_, test_cat_});
    resilience::ClearFaults();
  }
  EXPECT_EQ(registry.GetHistogram("rec.latency.primary")->count() -
                primary0,
            4u);
  EXPECT_EQ(
      registry.GetHistogram("rec.latency.bag_fallback")->count() -
          bag0,
      1u);
}

TEST_F(ServingFixture, TaggedRequestRankingIsAFunctionOfSeedAndRid) {
  const std::vector<TweetId> candidates = {test_stock_, test_cat_};
  // Two recommenders with different query histories: rid 7's ranking must
  // be identical anyway, because its tie stream is derived from (seed,
  // rid), not from the shared per-instance tie RNG.
  DegradingRecommender warmed(ctx_, Options());
  for (int i = 0; i < 5; ++i) (void)warmed.Recommend(ego_, candidates);
  DegradingRecommender fresh(ctx_, Options());

  QueryOptions query;
  query.request_id = 7;
  RecommendResult from_warmed = warmed.Recommend(ego_, candidates, query);
  RecommendResult from_fresh = fresh.Recommend(ego_, candidates, query);
  ASSERT_EQ(from_warmed.ranking.size(), from_fresh.ranking.size());
  for (size_t i = 0; i < from_warmed.ranking.size(); ++i) {
    EXPECT_EQ(from_warmed.ranking[i].tweet, from_fresh.ranking[i].tweet);
  }
}

TEST_F(ServingFixture, AnonymousQueryKeepsLegacyTieRngBehavior) {
  const std::vector<TweetId> candidates = {test_stock_, test_cat_};
  DegradingRecommender via_legacy(ctx_, Options());
  DegradingRecommender via_options(ctx_, Options());
  RecommendResult a = via_legacy.Recommend(ego_, candidates);
  RecommendResult b = via_options.Recommend(ego_, candidates, QueryOptions{});
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].tweet, b.ranking[i].tweet);
    EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score);
  }
}

TEST_F(ServingFixture, RequestTraceAttributesStagesPerRung) {
  const std::vector<TweetId> candidates = {test_stock_, test_cat_};
  {
    DegradingRecommender rec(ctx_, Options());
    obs::RequestTrace trace(1, "recommend");
    QueryOptions query;
    query.request_id = 1;
    query.trace = &trace;
    RecommendResult result = rec.Recommend(ego_, candidates, query);
    EXPECT_EQ(result.rung, ServingRung::kPrimary);
    // A healthy primary query attributes scoring and ranking time and
    // spends nothing degrading.
    EXPECT_GT(trace.StageSeconds(obs::Stage::kScore), 0.0);
    EXPECT_GT(trace.StageSeconds(obs::Stage::kRank), 0.0);
    EXPECT_EQ(trace.StageSeconds(obs::Stage::kDegrade), 0.0);
  }
  {
    resilience::ArmFault(resilience::kSiteSnapshotLoad,
                         resilience::FaultSpec{.every_nth = 1});
    DegradingRecommender rec(ctx_, Options());
    obs::RequestTrace trace(2, "recommend");
    QueryOptions query;
    query.request_id = 2;
    query.trace = &trace;
    RecommendResult result = rec.Recommend(ego_, candidates, query);
    resilience::ClearFaults();
    EXPECT_EQ(result.rung, ServingRung::kBagFallback);
    // The failed primary attempt's whole elapsed time shows up as degrade
    // (never as primary-stage time), then the fallback scores and ranks.
    EXPECT_GT(trace.StageSeconds(obs::Stage::kDegrade), 0.0);
    EXPECT_GT(trace.StageSeconds(obs::Stage::kRank), 0.0);
  }
  {
    // Score cache on: the first query scores both candidates and the repeat
    // is all cache hits. Each still enters candidate_gen, score and rank,
    // once each, inside its own wall time, with one rid-tagged span pair
    // per stage.
    const std::string trace_path =
        testutil::UniqueTempDir("microrec_stage_trace") + ".json";
    ASSERT_TRUE(obs::StartTracing(trace_path));
    ServingOptions options = Options();
    options.score_cache_capacity = 16;
    DegradingRecommender rec(ctx_, options);
    const obs::Stage kRungStages[] = {obs::Stage::kCandidateGen,
                                      obs::Stage::kScore, obs::Stage::kRank};
    auto stage_count = [](obs::Stage stage) {
      return obs::MetricsRegistry::Global()
          .GetHistogram("rec.stage." + std::string(obs::StageName(stage)))
          ->count();
    };
    for (uint64_t rid : {31, 32}) {
      std::vector<uint64_t> before;
      for (obs::Stage stage : kRungStages) before.push_back(stage_count(stage));
      obs::RequestTrace trace(rid, "recommend");
      QueryOptions query;
      query.request_id = rid;
      query.trace = &trace;
      const auto start = std::chrono::steady_clock::now();
      RecommendResult result = rec.Recommend(ego_, candidates, query);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      EXPECT_EQ(result.rung, ServingRung::kPrimary);
      double staged = 0.0;
      for (size_t s = 0; s < std::size(kRungStages); ++s) {
        EXPECT_TRUE(trace.Entered(kRungStages[s])) << "rid " << rid;
        EXPECT_EQ(stage_count(kRungStages[s]), before[s] + 1) << "rid " << rid;
        staged += trace.StageSeconds(kRungStages[s]);
      }
      EXPECT_FALSE(trace.Entered(obs::Stage::kDegrade));
      EXPECT_LE(staged, wall) << "rid " << rid;
    }
    obs::StopTracing();

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good());
    std::map<std::string, int> spans;  // "<stage> <phase> <rid>" -> events
    for (std::string line; std::getline(in, line);) {
      for (obs::Stage stage : kRungStages) {
        const std::string name(obs::StageName(stage));
        if (line.find("\"name\":\"" + name + "\"") == std::string::npos) {
          continue;
        }
        for (const char* phase : {"B", "E"}) {
          for (uint64_t rid : {31, 32}) {
            if (line.find(std::string("\"ph\":\"") + phase + "\"") !=
                    std::string::npos &&
                line.find("\"args\":{\"rid\":" + std::to_string(rid) +
                          "}") != std::string::npos) {
              ++spans[name + " " + phase + " " + std::to_string(rid)];
            }
          }
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
    for (obs::Stage stage : kRungStages) {
      for (const char* phase : {"B", "E"}) {
        for (uint64_t rid : {31, 32}) {
          const std::string key = std::string(obs::StageName(stage)) + " " +
                                  phase + " " + std::to_string(rid);
          EXPECT_EQ(spans[key], 1) << key;
        }
      }
    }
  }
}

TEST_F(ServingFixture, WarmLoadsPrimaryEagerly) {
  DegradingRecommender rec(ctx_, Options());
  EXPECT_TRUE(rec.Warm().ok());
  EXPECT_TRUE(rec.primary_status().ok());

  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender poisoned(ctx_, Options());
  EXPECT_FALSE(poisoned.Warm().ok());
  resilience::ClearFaults();
}

TEST_F(ServingFixture, ProfileLookupReturnsNonEmptyProfile) {
  DegradingRecommender rec(ctx_, Options());
  Result<size_t> size = rec.ProfileLookup(ego_);
  ASSERT_TRUE(size.ok()) << size.status().ToString();
  EXPECT_GT(*size, 0u);
}

TEST_F(ServingFixture, ProfileLookupFallsBackWhenPrimaryUnavailable) {
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  DegradingRecommender rec(ctx_, Options());
  Result<size_t> size = rec.ProfileLookup(ego_);
  resilience::ClearFaults();
  ASSERT_TRUE(size.ok()) << size.status().ToString();
  EXPECT_GT(*size, 0u);
}

TEST_F(ServingFixture, RungNamesAreStable) {
  EXPECT_EQ(ServingRungName(ServingRung::kPrimary), "primary");
  EXPECT_EQ(ServingRungName(ServingRung::kBagFallback), "bag-fallback");
  EXPECT_EQ(ServingRungName(ServingRung::kPopularity), "popularity");
}

}  // namespace
}  // namespace microrec::rec
