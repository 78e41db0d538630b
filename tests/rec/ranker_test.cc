#include "rec/ranker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "resilience/deadline.h"
#include "util/thread_pool.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

uint64_t CounterValue(const char* name) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const obs::CounterSnapshot* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

// ---------------------------------------------------------------------------
// CanonicalOrder
// ---------------------------------------------------------------------------

TEST(CanonicalOrderTest, SortsDescendingByScore) {
  std::vector<double> scores = {0.1, 0.9, 0.5};
  EXPECT_EQ(CanonicalOrder(scores, nullptr),
            (std::vector<uint32_t>{1, 2, 0}));
}

TEST(CanonicalOrderTest, NullRngBreaksTiesByInputPosition) {
  std::vector<double> scores = {0.5, 0.5, 0.5};
  EXPECT_EQ(CanonicalOrder(scores, nullptr),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(CanonicalOrderTest, SameSeedSamePermutation) {
  std::vector<double> scores(10, 1.0);
  Rng a(42, kTieBreakStream), b(42, kTieBreakStream);
  EXPECT_EQ(CanonicalOrder(scores, &a), CanonicalOrder(scores, &b));
}

TEST(CanonicalOrderTest, TieBreakIsAPermutationRespectingScores) {
  std::vector<double> scores = {0.5, 0.9, 0.5, 0.1, 0.5};
  Rng rng(7, kTieBreakStream);
  std::vector<uint32_t> order = CanonicalOrder(scores, &rng);
  ASSERT_EQ(order.size(), scores.size());
  std::vector<uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(order.front(), 1u);  // unique max always wins
  EXPECT_EQ(order.back(), 3u);   // unique min always loses
}

TEST(CanonicalOrderTest, ScoresStayNonIncreasing) {
  std::vector<double> scores = {0.5, 0.9, 0.5, 0.1, 0.5};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed, kTieBreakStream);
    std::vector<uint32_t> order = CanonicalOrder(scores, &rng);
    ASSERT_EQ(order.size(), scores.size());
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(scores[order[i - 1]], scores[order[i]]) << "seed " << seed;
    }
  }
}

TEST(CanonicalOrderTest, TopKIsExactPrefixOfFullRanking) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> inputs = {
      {0.5, 0.9, 0.5, 0.1, 0.5, 0.9, 0.0, 0.5}};
  // Heavy ties: four values, one of them -inf, at sizes up to and past the
  // ~64 candidates a serving query ranks.
  const double values[] = {0.25, 0.75, kNegInf, 0.5};
  for (size_t n : {1, 2, 63, 64, 65, 130, 257}) {
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) scores[i] = values[(i * 7 + n) % 4];
    inputs.push_back(scores);
  }
  // +0.0 and -0.0 compare equal under >, so only the tie permutation may
  // order them; a few positives and negatives sit around them.
  for (size_t n : {20, 64, 130}) {
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) {
      scores[i] = i % 9 == 0 ? 0.5 : i % 11 == 0 ? -0.5 : i % 2 ? -0.0 : 0.0;
    }
    inputs.push_back(scores);
  }
  // All distinct: every selection decision is a strict comparison.
  for (size_t n : {64, 257}) {
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) {
      scores[i] = static_cast<double>((i * 37 + 11) % n) / 8.0 - 3.0;
    }
    inputs.push_back(scores);
  }
  for (const std::vector<double>& scores : inputs) {
    const size_t n = scores.size();
    std::vector<size_t> ks;
    if (n <= 65) {
      for (size_t k = 1; k <= n; ++k) ks.push_back(k);
    } else {
      // Around and past the widest selection kept in fixed buffers (64).
      for (size_t k : {1, 2, 3, 10, 63, 64, 65, 66, 100, 128, 255, 256}) {
        if (k < n) ks.push_back(k);
      }
      ks.push_back(n);
      ks.push_back(n + 1);
    }
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Rng full_rng(seed, kTieBreakStream);
      std::vector<uint32_t> full = CanonicalOrder(scores, &full_rng);
      const uint32_t next_draw = full_rng.NextU32();
      for (size_t k : ks) {
        Rng topk_rng(seed, kTieBreakStream);
        std::vector<uint32_t> head = CanonicalOrder(scores, &topk_rng, k);
        EXPECT_EQ(head, std::vector<uint32_t>(
                            full.begin(), full.begin() + std::min(k, n)))
            << "n " << n << " seed " << seed << " k " << k;
        EXPECT_EQ(topk_rng.NextU32(), next_draw)
            << "n " << n << " seed " << seed << " k " << k;
      }
    }
  }
}

TEST(CanonicalOrderTest, SignedZerosTieByInputPositionWithoutRng) {
  // -0.0 is not below +0.0: without a permutation both the full sort and
  // the top-K pass keep the zeros in input order.
  const std::vector<double> scores = {-0.0, 0.0, -0.0, 0.0, 0.25};
  EXPECT_EQ(CanonicalOrder(scores, nullptr),
            (std::vector<uint32_t>{4, 0, 1, 2, 3}));
  EXPECT_EQ(CanonicalOrder(scores, nullptr, 3),
            (std::vector<uint32_t>{4, 0, 1}));
}

TEST(CanonicalOrderTest, TopKConsumesSameRngDrawsAsFullSort) {
  // A truncated ranking must advance the tie stream exactly like a full
  // one, or the next query's ties would diverge between eval and serving.
  std::vector<double> scores = {3.0, 1.0, 2.0, 1.0};
  Rng a(9, kTieBreakStream), b(9, kTieBreakStream);
  (void)CanonicalOrder(scores, &a, 0);
  (void)CanonicalOrder(scores, &b, 2);
  EXPECT_EQ(a.NextU32(), b.NextU32());
}

// ---------------------------------------------------------------------------
// BatchRanker over a scripted engine (generic scoring path)
// ---------------------------------------------------------------------------

class FakeEngine : public Engine {
 public:
  std::unordered_map<TweetId, double> scores;
  int score_calls = 0;

  Status Prepare(const EngineContext&) override { return Status::OK(); }
  Status BuildUser(UserId, const corpus::LabeledTrainSet&,
                   const EngineContext&) override {
    return Status::OK();
  }
  double Score(UserId, TweetId d, const EngineContext&) override {
    ++score_calls;
    auto it = scores.find(d);
    return it == scores.end() ? 0.0 : it->second;
  }
  Status SaveSnapshot(const std::string&,
                      const EngineContext&) const override {
    return Status::OK();
  }
  Status Open(const std::string&, const EngineContext&, ServeMode) override {
    return Status::OK();
  }
};

class FakeEngineTest : public ::testing::Test {
 protected:
  FakeEngine engine_;
  EngineContext ctx_;
};

TEST_F(FakeEngineTest, RanksByScriptedScores) {
  engine_.scores = {{10, 0.2}, {11, 0.9}, {12, 0.5}};
  BatchRanker ranker(&engine_, &ctx_, RankerOptions{});
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(0, {10, 11, 12}, nullptr);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].tweet, 11u);
  EXPECT_EQ((*ranked)[1].tweet, 12u);
  EXPECT_EQ((*ranked)[2].tweet, 10u);
  EXPECT_EQ((*ranked)[0].index, 1u);  // input position survives ranking
}

TEST_F(FakeEngineTest, NonfiniteScoresMapToNegativeInfinityAndAreCounted) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  engine_.scores = {{10, 1.0}, {11, nan}, {12, inf}, {13, 0.5}};
  const uint64_t before = CounterValue("rec.nonfinite_scores");

  BatchRanker ranker(&engine_, &ctx_, RankerOptions{});
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(0, {10, 11, 12, 13}, nullptr);
  ASSERT_TRUE(ranked.ok());
  // Finite scores first; the two non-finite ones sink to the bottom as
  // -inf, tie-broken by input position (null rng).
  EXPECT_EQ((*ranked)[0].tweet, 10u);
  EXPECT_EQ((*ranked)[1].tweet, 13u);
  EXPECT_EQ((*ranked)[2].tweet, 11u);
  EXPECT_EQ((*ranked)[3].tweet, 12u);
  EXPECT_TRUE(std::isinf((*ranked)[2].score));
  EXPECT_LT((*ranked)[2].score, 0.0);
  EXPECT_EQ(CounterValue("rec.nonfinite_scores"), before + 2);
}

TEST_F(FakeEngineTest, CachedNonfiniteScoreIsCountedOnce) {
  engine_.scores = {{10, std::numeric_limits<double>::quiet_NaN()},
                    {11, 0.5}};
  RankerOptions options;
  options.score_cache_capacity = 16;
  BatchRanker ranker(&engine_, &ctx_, options);
  const uint64_t before = CounterValue("rec.nonfinite_scores");
  for (int query = 0; query < 3; ++query) {
    Result<std::vector<RankedItem>> ranked = ranker.Rank(0, {10, 11}, nullptr);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ((*ranked)[1].tweet, 10u);
    EXPECT_EQ((*ranked)[1].score, -std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(engine_.score_calls, 2);
  // The engine returned one NaN; the two cache hits on its -inf are not
  // further non-finite scores.
  EXPECT_EQ(CounterValue("rec.nonfinite_scores"), before + 1);
}

TEST_F(FakeEngineTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  engine_.scores = {{10, 1.0}};
  BatchRanker ranker(&engine_, &ctx_, RankerOptions{});
  resilience::Deadline expired = resilience::Deadline::After(0.0);
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(0, {10}, nullptr, &expired);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FakeEngineTest, InfiniteDeadlineDoesNotInterfere) {
  engine_.scores = {{10, 1.0}, {11, 2.0}};
  BatchRanker ranker(&engine_, &ctx_, RankerOptions{});
  resilience::Deadline infinite = resilience::Deadline::Infinite();
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(0, {10, 11}, nullptr, &infinite);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ((*ranked)[0].tweet, 11u);
}

TEST_F(FakeEngineTest, ScoreCacheSkipsRepeatEngineCalls) {
  engine_.scores = {{10, 0.3}, {11, 0.8}};
  RankerOptions options;
  options.score_cache_capacity = 16;
  BatchRanker ranker(&engine_, &ctx_, options);

  Result<std::vector<RankedItem>> first = ranker.Rank(0, {10, 11}, nullptr);
  ASSERT_TRUE(first.ok());
  const int calls_after_first = engine_.score_calls;
  EXPECT_EQ(calls_after_first, 2);

  Result<std::vector<RankedItem>> second = ranker.Rank(0, {10, 11}, nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine_.score_calls, calls_after_first);  // all cache hits
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].tweet, (*second)[i].tweet);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
}

TEST_F(FakeEngineTest, ScoreCacheFillsInCandidateOrderUpToCapacity) {
  std::vector<TweetId> candidates;
  for (TweetId d = 100; d < 140; ++d) {
    candidates.push_back(d);
    engine_.scores[d] = static_cast<double>(d % 5) / 4.0;  // ties
  }
  candidates.push_back(100);  // the first candidate again
  RankerOptions options;
  options.score_cache_capacity = 16;
  BatchRanker ranker(&engine_, &ctx_, options);

  Rng first_rng(3, kTieBreakStream);
  Result<std::vector<RankedItem>> first =
      ranker.Rank(0, candidates, &first_rng);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine_.score_calls, 41);  // nothing cached before this call

  // The cache holds the first 16 candidates, 100..115: hits for them and
  // for the repeated 100, the engine for the other 24.
  Rng second_rng(3, kTieBreakStream);
  Result<std::vector<RankedItem>> second =
      ranker.Rank(0, candidates, &second_rng);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine_.score_calls, 41 + 24);

  ASSERT_EQ(first->size(), candidates.size());
  ASSERT_EQ(second->size(), candidates.size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].tweet, (*second)[i].tweet) << i;
    EXPECT_EQ((*first)[i].score, (*second)[i].score) << i;
    EXPECT_EQ((*first)[i].index, (*second)[i].index) << i;
  }
}

TEST_F(FakeEngineTest, ScoreCacheIsPerUser) {
  engine_.scores = {{10, 0.3}};
  RankerOptions options;
  options.score_cache_capacity = 16;
  BatchRanker ranker(&engine_, &ctx_, options);
  ASSERT_TRUE(ranker.Rank(1, {10}, nullptr).ok());
  ASSERT_TRUE(ranker.Rank(2, {10}, nullptr).ok());
  EXPECT_EQ(engine_.score_calls, 2);  // user 2 is not served user 1's cache
}

TEST_F(FakeEngineTest, TopKTruncatesToHeadOfFullRanking) {
  engine_.scores = {{10, 0.1}, {11, 0.9}, {12, 0.5}, {13, 0.7}};
  RankerOptions options;
  options.top_k = 2;
  BatchRanker ranker(&engine_, &ctx_, options);
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(0, {10, 11, 12, 13}, nullptr);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].tweet, 11u);
  EXPECT_EQ((*ranked)[1].tweet, 13u);
}

TEST_F(FakeEngineTest, EmptyCandidateListRanksEmpty) {
  BatchRanker ranker(&engine_, &ctx_, RankerOptions{});
  Rng tie_rng(1, kTieBreakStream);
  Result<std::vector<RankedItem>> ranked = ranker.Rank(0, {}, &tie_rng);
  ASSERT_TRUE(ranked.ok());
  EXPECT_TRUE(ranked->empty());
}

TEST_F(FakeEngineTest, ReusedRankerMatchesFreshRankerAcrossCalls) {
  // Heavy ties, so the permutation decides most positions, and one NaN.
  for (TweetId d = 100; d < 200; ++d) {
    engine_.scores[d] = static_cast<double>(d % 4) / 4.0;
  }
  engine_.scores[150] = std::numeric_limits<double>::quiet_NaN();
  auto ids = [](TweetId first, size_t count) {
    std::vector<TweetId> out;
    for (size_t i = 0; i < count; ++i) out.push_back(first + i);
    return out;
  };
  struct Call {
    UserId user;
    std::vector<TweetId> candidates;
    bool expired;
  };
  // 65 -> 3 -> 65 candidates over three users, and 65 -> 3 for a user
  // with a cache. The expired call goes to a user with nothing cached, so
  // it fails in the reused and the fresh ranker alike; the last call
  // repeats the first, all hits when cached.
  const std::vector<Call> calls = {
      {1, ids(100, 65), false}, {2, {101, 150, 7}, false},
      {3, ids(100, 65), true},  {1, ids(120, 65), false},
      {1, {101, 150, 7}, false}, {2, ids(130, 65), false},
      {1, ids(100, 65), false},
  };
  const resilience::Deadline expired = resilience::Deadline::After(0.0);
  // A 32-entry cache leaves repeat calls part hit, part miss; 4096 makes
  // the last call all hits.
  for (size_t cache : {size_t{0}, size_t{32}, size_t{4096}}) {
    for (size_t top_k : {size_t{0}, size_t{10}}) {
      RankerOptions options;
      options.score_cache_capacity = cache;
      options.top_k = top_k;
      BatchRanker reused(&engine_, &ctx_, options);
      Rng reused_rng(5, kTieBreakStream);
      Rng fresh_rng(5, kTieBreakStream);
      // What the reused ranker's cache holds, per user: it must score
      // exactly the candidates outside it.
      std::unordered_map<UserId, std::vector<TweetId>> cached;
      for (size_t c = 0; c < calls.size(); ++c) {
        const Call& call = calls[c];
        const resilience::Deadline* deadline =
            call.expired ? &expired : nullptr;
        std::vector<TweetId> misses;
        for (TweetId d : call.candidates) {
          const std::vector<TweetId>& held = cached[call.user];
          if (std::find(held.begin(), held.end(), d) == held.end()) {
            misses.push_back(d);
          }
        }
        const int calls_before = engine_.score_calls;
        Result<std::vector<RankedItem>> got =
            reused.Rank(call.user, call.candidates, &reused_rng, deadline);
        EXPECT_EQ(engine_.score_calls - calls_before,
                  call.expired ? 0 : static_cast<int>(misses.size()))
            << "call " << c;
        for (TweetId d : misses) {
          if (call.expired || cached[call.user].size() >= cache) break;
          cached[call.user].push_back(d);
        }
        BatchRanker fresh(&engine_, &ctx_, options);
        Result<std::vector<RankedItem>> want =
            fresh.Rank(call.user, call.candidates, &fresh_rng, deadline);
        const std::string where = "cache " + std::to_string(cache) +
                                  " top_k " + std::to_string(top_k) +
                                  " call " + std::to_string(c);
        ASSERT_EQ(got.ok(), !call.expired) << where;
        ASSERT_EQ(want.ok(), !call.expired) << where;
        if (call.expired) {
          EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
        } else {
          ASSERT_EQ(got->size(), want->size()) << where;
          for (size_t i = 0; i < got->size(); ++i) {
            EXPECT_EQ((*got)[i].tweet, (*want)[i].tweet) << where;
            EXPECT_EQ((*got)[i].score, (*want)[i].score) << where;
            EXPECT_EQ((*got)[i].index, (*want)[i].index) << where;
          }
        }
        // Both tie streams advanced by the same draws.
        Rng reused_next = reused_rng;
        Rng fresh_next = fresh_rng;
        EXPECT_EQ(reused_next.NextU32(), fresh_next.NextU32()) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BatchRanker over a real bag engine (pruned sparse fast path)
// ---------------------------------------------------------------------------

// Miniature world: ego retweets cat posts, so her TN profile must rank cat
// candidates first; one candidate shares no vocabulary at all and must be
// pruned without changing any score.
class BagRankerFixture : public ::testing::Test {
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
        "bond yields fall after rate decision",
    };
    corpus::Timestamp t = 0;
    for (const char* text : texts) {
      posts_.push_back(*world_.AddTweet(feed_, t += 10, text));
    }
    for (int i = 0; i < 3; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", posts_[i]);
    }
    candidates_.push_back(*world_.AddTweet(feed_, t += 10,
                                           "sleepy cat naps in the sun"));
    candidates_.push_back(*world_.AddTweet(
        feed_, t += 10, "bond yields rise as stocks slip"));
    candidates_.push_back(*world_.AddTweet(
        feed_, t += 10, "quux zorp blarg frobnicate"));  // disjoint vocab
    candidates_.push_back(*world_.AddTweet(feed_, t += 10,
                                           "kitten plays with laser dot"));
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

    config_.kind = ModelKind::kTN;
    config_.bag.kind = bag::NgramKind::kToken;
    config_.bag.n = 1;
    config_.bag.weighting = bag::Weighting::kTF;
    config_.bag.aggregation = bag::Aggregation::kCentroid;
    config_.bag.similarity = bag::BagSimilarity::kCosine;
  }

  std::unique_ptr<Engine> TrainedEngine() {
    std::unique_ptr<Engine> engine = MakeEngine(config_);
    EXPECT_TRUE(engine->Prepare(ctx_).ok());
    EXPECT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    return engine;
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_;
  std::vector<UserId> users_;
  EngineContext ctx_;
  ModelConfig config_;
  UserId ego_ = 0, feed_ = 0;
  std::vector<TweetId> posts_;
  std::vector<TweetId> candidates_;
};

TEST_F(BagRankerFixture, BagEngineExposesSparseScorer) {
  std::unique_ptr<Engine> engine = TrainedEngine();
  SparseProfileScorer* scorer = engine->sparse_scorer();
  ASSERT_NE(scorer, nullptr);
  const bag::SparseVector* profile = scorer->Profile(ego_);
  ASSERT_NE(profile, nullptr);
  EXPECT_FALSE(profile->empty());
  EXPECT_EQ(scorer->Profile(ego_ + 99), nullptr);
}

TEST_F(BagRankerFixture, FastPathBitIdenticalToBruteForceAnyThreadCount) {
  std::unique_ptr<Engine> engine = TrainedEngine();

  // Brute force: one Engine::Score per candidate, canonical order.
  std::vector<double> brute_scores;
  for (TweetId id : candidates_) {
    brute_scores.push_back(engine->Score(ego_, id, ctx_));
  }
  Rng brute_rng(ctx_.seed, kTieBreakStream);
  std::vector<uint32_t> brute_order =
      CanonicalOrder(brute_scores, &brute_rng);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t shard_size : {size_t{1}, size_t{3}, size_t{64}}) {
      std::unique_ptr<ThreadPool> pool;
      RankerOptions options;
      options.shard_size = shard_size;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        options.pool = pool.get();
      }
      BatchRanker ranker(engine.get(), &ctx_, options);
      Rng tie_rng(ctx_.seed, kTieBreakStream);
      Result<std::vector<RankedItem>> ranked =
          ranker.Rank(ego_, candidates_, &tie_rng);
      ASSERT_TRUE(ranked.ok());
      ASSERT_EQ(ranked->size(), candidates_.size());
      for (size_t i = 0; i < ranked->size(); ++i) {
        EXPECT_EQ((*ranked)[i].index, brute_order[i])
            << "threads=" << threads << " shard=" << shard_size;
        // Bitwise: the fast path must not perturb a single ULP.
        EXPECT_EQ((*ranked)[i].score, brute_scores[brute_order[i]]);
      }
    }
  }
}

TEST_F(BagRankerFixture, DisjointCandidateIsPrunedAndScoresZero) {
  std::unique_ptr<Engine> engine = TrainedEngine();
  const uint64_t pruned_before = CounterValue("rec.ranker.pruned");
  const uint64_t cand_before = CounterValue("rec.ranker.candidates");

  BatchRanker ranker(engine.get(), &ctx_, RankerOptions{});
  Result<std::vector<RankedItem>> ranked =
      ranker.Rank(ego_, candidates_, nullptr);
  ASSERT_TRUE(ranked.ok());

  EXPECT_EQ(CounterValue("rec.ranker.candidates"),
            cand_before + candidates_.size());
  EXPECT_GE(CounterValue("rec.ranker.pruned"), pruned_before + 1);
  for (const RankedItem& item : *ranked) {
    if (item.tweet == candidates_[2]) {
      EXPECT_EQ(item.score, 0.0);  // the nonsense-vocabulary candidate
    }
  }
  // A cat-themed candidate must outrank the pruned one.
  EXPECT_TRUE((*ranked)[0].tweet == candidates_[0] ||
              (*ranked)[0].tweet == candidates_[3]);
  EXPECT_GT((*ranked)[0].score, 0.0);
}

TEST_F(BagRankerFixture, FastPathHonorsScoreCache) {
  std::unique_ptr<Engine> engine = TrainedEngine();
  RankerOptions options;
  options.score_cache_capacity = 32;
  BatchRanker ranker(engine.get(), &ctx_, options);
  Result<std::vector<RankedItem>> first =
      ranker.Rank(ego_, candidates_, nullptr);
  Result<std::vector<RankedItem>> second =
      ranker.Rank(ego_, candidates_, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].tweet, (*second)[i].tweet);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
}

TEST_F(BagRankerFixture, UnknownUserFallsBackToGenericPathGracefully) {
  // No profile for this user: the ranker must not take the fast path. The
  // generic path then consults Engine::Score, which throws for unknown
  // users — exactly the pre-ranker contract (programmer error, asserted
  // upstream by callers who rank only built users).
  std::unique_ptr<Engine> engine = TrainedEngine();
  SparseProfileScorer* scorer = engine->sparse_scorer();
  ASSERT_NE(scorer, nullptr);
  EXPECT_EQ(scorer->Profile(ego_ + 7), nullptr);
}

}  // namespace
}  // namespace microrec::rec
