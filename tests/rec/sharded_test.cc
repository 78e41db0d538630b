// The sharded serving topology end to end: pure hash partitioning, the
// breaker state machine, byte-identity of sharded vs unsharded rankings,
// ring failover under injected shard faults (including a mid-run
// kill-after), the poisoned-snapshot rung pin, the fail-open popularity
// floor, hedged requests, and warm-while-serving (run under TSan in CI —
// a half-loaded rung 0 must never be observable).
#include "rec/sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rec/router.h"
#include "rec/serving.h"
#include "resilience/fault.h"
#include "temp_dir.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

TEST(ShardOfTest, PureInRangeAndCoversShards) {
  for (UserId u = 0; u < 64; ++u) {
    EXPECT_EQ(ShardOf(u, 1), 0u);
    for (size_t shards : {2u, 4u, 7u}) {
      size_t first = ShardOf(u, shards);
      EXPECT_LT(first, shards);
      EXPECT_EQ(first, ShardOf(u, shards)) << "not pure for u=" << u;
    }
  }
  std::set<size_t> hit;
  for (UserId u = 0; u < 1000; ++u) hit.insert(ShardOf(u, 4));
  EXPECT_EQ(hit.size(), 4u) << "1000 users left a shard empty";
}

TEST(ShardBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  BreakerOptions options;
  options.failure_threshold = 3;
  ShardBreaker breaker(options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // resets the consecutive count
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(ShardBreakerTest, CooldownIsCountedInArrivals) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_queries = 3;
  ShardBreaker breaker(options);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Three arrivals are turned away; the cooldown has then elapsed and the
  // next arrival probes.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.transitions(), 3u);  // closed->open->half-open->closed
}

TEST(ShardBreakerTest, HalfOpenFailureReopens) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_queries = 1;
  ShardBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(ShardBreakerTest, HalfOpenRetripRestartsAFullCooldown) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_queries = 3;
  ShardBreaker breaker(options);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // A failed probe re-trips, and the new open period owes the FULL
  // cooldown again — arrivals turned away before the probe don't carry
  // over into the re-tripped breaker.
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(breaker.AllowRequest()) << "arrival " << i;
  }
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // closed->open, open->half-open, half-open->open, open->half-open.
  EXPECT_EQ(breaker.transitions(), 4u);
}

TEST(ShardBreakerTest, HalfOpenProbeProgressResetsOnRetrip) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_queries = 1;
  options.half_open_successes = 2;
  ShardBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();  // 1 of 2: still probing
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordFailure();  // re-trip discards the banked success
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();  // a fresh half-open needs both successes again
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(ShardBreakerTest, TransitionCounterCountsEachEdgeOnce) {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown_queries = 2;
  ShardBreaker breaker(options);
  // Failures below the threshold are not edges.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.transitions(), 0u);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.transitions(), 1u);  // closed->open
  // Extra failures and turned-away arrivals while open are not edges.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.transitions(), 1u);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.transitions(), 2u);  // open->half-open
  // Repeated half-open probes without an outcome are not edges either.
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.transitions(), 2u);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.transitions(), 3u);  // half-open->closed
  // A success on a closed breaker is a no-op, not a self-edge.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.transitions(), 3u);
}

// Corpus fixture mirroring serving_test.cc: two users with disjoint
// interests, a snapshotted TN primary, and per-shard snapshots for every
// shard count under test.
class ShardedFixture : public ::testing::Test {
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

    dir_ = testutil::UniqueTempDir("microrec_sharded");
    std::filesystem::create_directories(dir_);

    config_.kind = ModelKind::kTN;
    config_.bag.kind = bag::NgramKind::kToken;
    config_.bag.n = 1;
    config_.bag.weighting = bag::Weighting::kTFIDF;
    config_.bag.aggregation = bag::Aggregation::kCentroid;
    config_.bag.similarity = bag::BagSimilarity::kCosine;
    snapshot_path_ = dir_ + "/primary.snap";
    auto engine = MakeEngine(config_);
    ASSERT_TRUE(engine->Prepare(ctx_).ok());
    ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    ASSERT_TRUE(engine->BuildUser(rival_, rival_train_, ctx_).ok());
    ASSERT_TRUE(engine->SaveSnapshot(snapshot_path_, ctx_).ok());
    for (size_t shards : {2u, 4u}) {
      ASSERT_TRUE(
          BuildShardSnapshots(config_, ctx_, shards, snapshot_path_).ok());
    }
  }

  void TearDown() override {
    resilience::ClearFaults();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ShardedServingOptions Options(size_t shards) const {
    ShardedServingOptions options;
    options.serving.primary = config_;
    options.serving.snapshot_path = snapshot_path_;
    options.num_shards = shards;
    return options;
  }

  std::vector<TweetId> Candidates() const { return {test_cat_, test_stock_}; }

  static std::vector<TweetId> Tweets(const RecommendResult& result) {
    std::vector<TweetId> out;
    for (const Recommendation& r : result.ranking) out.push_back(r.tweet);
    return out;
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_, rival_train_;
  std::vector<UserId> users_;
  EngineContext ctx_;
  UserId ego_ = 0, cats_ = 0, stocks_ = 0, rival_ = 0;
  std::vector<TweetId> cat_posts_, stock_posts_;
  TweetId test_cat_ = 0, test_stock_ = 0;
  ModelConfig config_;
  std::string snapshot_path_;
  std::string dir_;
};

TEST_F(ShardedFixture, BuildShardSnapshotsWritesOneFilePerShard) {
  std::vector<std::string> paths;
  ASSERT_TRUE(
      BuildShardSnapshots(config_, ctx_, 3, dir_ + "/probe.snap", &paths)
          .ok());
  ASSERT_EQ(paths.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(paths[s], ShardSnapshotPath(dir_ + "/probe.snap", s, 3));
    EXPECT_TRUE(std::filesystem::exists(paths[s]));
  }
  EXPECT_FALSE(BuildShardSnapshots(config_, ctx_, 0, dir_ + "/x.snap").ok());
}

TEST_F(ShardedFixture, MatchesUnshardedByteForByte) {
  DegradingRecommender unsharded(ctx_, Options(1).serving);
  for (size_t shards : {1u, 2u, 4u}) {
    ShardedRecommender sharded(ctx_, Options(shards));
    for (UserId u : users_) {
      QueryOptions query;
      query.request_id = 7;
      RecommendResult want = unsharded.Recommend(u, Candidates(), query);
      ShardedRecommendResult got = sharded.Recommend(u, Candidates(), query);
      EXPECT_EQ(got.result.rung, ServingRung::kPrimary);
      EXPECT_EQ(got.owner, ShardOf(u, shards));
      EXPECT_EQ(got.shard, got.owner);
      EXPECT_EQ(Tweets(got.result), Tweets(want))
          << "shards=" << shards << " u=" << u;
    }
  }
}

TEST_F(ShardedFixture, FailoverServesIdenticalRankingFromAnotherShard) {
  DegradingRecommender unsharded(ctx_, Options(1).serving);
  ShardedRecommender sharded(ctx_, Options(4));
  const size_t owner = ShardOf(ego_, 4);
  resilience::ArmFault("shard.query#" + std::to_string(owner),
                       resilience::FaultSpec{.every_nth = 1});
  QueryOptions query;
  query.request_id = 3;
  ShardedRecommendResult got = sharded.Recommend(ego_, Candidates(), query);
  EXPECT_NE(got.shard, owner);
  EXPECT_GE(got.failovers, 1u);
  EXPECT_FALSE(got.fail_open);
  EXPECT_EQ(got.result.rung, ServingRung::kPrimary);
  EXPECT_EQ(Tweets(got.result),
            Tweets(unsharded.Recommend(ego_, Candidates(), query)));
}

TEST_F(ShardedFixture, KillAfterDropsShardMidRunAndTripsItsBreaker) {
  ShardedRecommender sharded(ctx_, Options(4));
  const size_t owner = ShardOf(ego_, 4);
  ASSERT_TRUE(resilience::ArmFaultsFromSpec("shard.query#" +
                                            std::to_string(owner) + ":+2")
                  .ok());
  // Healthy for the first two hits, dead from the third on.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sharded.Recommend(ego_, Candidates()).shard, owner);
  }
  for (int i = 0; i < 8; ++i) {
    ShardedRecommendResult got = sharded.Recommend(ego_, Candidates());
    EXPECT_FALSE(got.result.ranking.empty());
    EXPECT_EQ(got.result.rung, ServingRung::kPrimary);
  }
  std::vector<ShardHealth> health = sharded.Health();
  ASSERT_EQ(health.size(), 4u);
  EXPECT_GE(health[owner].failures, 1u);
  EXPECT_GE(health[owner].breaker_transitions, 1u);
  for (size_t s = 0; s < 4; ++s) {
    if (s == owner) continue;
    EXPECT_EQ(health[s].failures, 0u) << "shard " << s;
    EXPECT_EQ(health[s].breaker_transitions, 0u) << "shard " << s;
  }
}

TEST_F(ShardedFixture, PoisonedSnapshotPinsShardToFallbackRung) {
  ShardedRecommender sharded(ctx_, Options(4));
  const size_t owner = ShardOf(ego_, 4);
  resilience::ArmFault("shard.snapshot.load#" + std::to_string(owner),
                       resilience::FaultSpec{.every_nth = 1});
  ShardedRecommendResult got = sharded.Recommend(ego_, Candidates());
  EXPECT_EQ(got.shard, owner);
  EXPECT_GE(static_cast<int>(got.result.rung),
            static_cast<int>(ServingRung::kBagFallback));
  EXPECT_FALSE(got.result.ranking.empty());
  // The rival's shard (if different) is unaffected and stays on rung 0.
  if (ShardOf(rival_, 4) != owner) {
    EXPECT_EQ(sharded.Recommend(rival_, Candidates()).result.rung,
              ServingRung::kPrimary);
  }
}

TEST_F(ShardedFixture, FailsOpenOnPopularityWhenEveryShardIsDead) {
  ShardedRecommender sharded(ctx_, Options(2));
  resilience::ArmFault("shard.query", resilience::FaultSpec{.every_nth = 1});
  ShardedRecommendResult got = sharded.Recommend(ego_, Candidates());
  EXPECT_TRUE(got.fail_open);
  EXPECT_EQ(got.shard, got.owner);
  EXPECT_EQ(got.result.rung, ServingRung::kPopularity);
  EXPECT_FALSE(got.result.ranking.empty());
}

TEST_F(ShardedFixture, HedgeReissuesToFallbackAfterTheWindow) {
  ShardedServingOptions options = Options(2);
  // A hedge window no real rung-0 attempt can meet: the first attempt's
  // deadline expires and the hedge must buy the fallback rung instead.
  options.hedge_after_seconds = 1e-9;
  ShardedRecommender sharded(ctx_, options);
  ShardedRecommendResult got = sharded.Recommend(ego_, Candidates());
  EXPECT_TRUE(got.hedged);
  EXPECT_GE(static_cast<int>(got.result.rung),
            static_cast<int>(ServingRung::kBagFallback));
  EXPECT_FALSE(got.result.ranking.empty());
  std::vector<ShardHealth> health = sharded.Health();
  uint64_t hedges = 0;
  for (const ShardHealth& h : health) hedges += h.hedges;
  EXPECT_GE(hedges, 1u);
}

TEST_F(ShardedFixture, ProfileLookupFailsOverLikeQueries) {
  ShardedRecommender sharded(ctx_, Options(4));
  Result<size_t> healthy = sharded.ProfileLookup(ego_);
  ASSERT_TRUE(healthy.ok());
  EXPECT_GT(*healthy, 0u);
  const size_t owner = ShardOf(ego_, 4);
  resilience::ArmFault("shard.query#" + std::to_string(owner),
                       resilience::FaultSpec{.every_nth = 1});
  Result<size_t> failed_over = sharded.ProfileLookup(ego_);
  ASSERT_TRUE(failed_over.ok());
  EXPECT_EQ(*failed_over, *healthy);
}

// Satellite: warm-while-serving. Serving threads hammer the sharded front
// end while another thread (re)warms it; every served rung-0 ranking must
// equal the reference — a half-loaded primary must never be observable.
// The per-shard mutex is the mechanism; TSan (CI chaos-serving job) is the
// judge of the locking, this test of the values.
TEST_F(ShardedFixture, WarmWhileServingNeverServesHalfLoadedPrimary) {
  ShardedRecommender sharded(ctx_, Options(2));
  DegradingRecommender unsharded(ctx_, Options(1).serving);
  QueryOptions query;
  query.request_id = 5;
  const std::vector<TweetId> want =
      Tweets(unsharded.Recommend(ego_, Candidates(), query));

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < 3; ++t) {
    servers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ShardedRecommendResult got =
            sharded.Recommend(ego_, Candidates(), query);
        if (got.result.rung == ServingRung::kPrimary &&
            Tweets(got.result) != want) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) (void)sharded.Warm();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : servers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(sharded.Warm().ok());
}

TEST_F(ShardedFixture, HealthAccountsEveryServedQuery) {
  ShardedRecommender sharded(ctx_, Options(4));
  const int queries = 6;
  for (int i = 0; i < queries; ++i) {
    (void)sharded.Recommend(users_[i % users_.size()], Candidates());
  }
  std::vector<ShardHealth> health = sharded.Health();
  ASSERT_EQ(health.size(), 4u);
  uint64_t served = 0;
  for (const ShardHealth& h : health) {
    EXPECT_EQ(h.state, BreakerState::kClosed);
    served += h.served;
  }
  EXPECT_EQ(served, static_cast<uint64_t>(queries));
}

}  // namespace
}  // namespace microrec::rec
