#include "corpus/corpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "corpus/tokenized.h"
#include "synth/generator.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace microrec::corpus {
namespace {

// Builds: alice follows bob; bob posts two originals; alice retweets one
// and posts one original of her own.
class CorpusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = corpus_.AddUser("alice");
    bob_ = corpus_.AddUser("bob");
    ASSERT_TRUE(corpus_.graph().AddFollow(alice_, bob_).ok());
    bob_t1_ = *corpus_.AddTweet(bob_, 100, "first post by bob");
    bob_t2_ = *corpus_.AddTweet(bob_, 200, "second post by bob");
    alice_rt_ = *corpus_.AddTweet(alice_, 250, "", bob_t1_);
    alice_t1_ = *corpus_.AddTweet(alice_, 300, "alice speaks");
    corpus_.Finalize();
  }

  Corpus corpus_;
  UserId alice_ = kInvalidUser, bob_ = kInvalidUser;
  TweetId bob_t1_ = kInvalidTweet, bob_t2_ = kInvalidTweet;
  TweetId alice_rt_ = kInvalidTweet, alice_t1_ = kInvalidTweet;
};

TEST_F(CorpusFixture, BasicCounts) {
  EXPECT_EQ(corpus_.num_users(), 2u);
  EXPECT_EQ(corpus_.num_tweets(), 4u);
  EXPECT_EQ(corpus_.user(alice_).handle, "alice");
}

TEST_F(CorpusFixture, RetweetInheritsTextAndAuthor) {
  const Tweet& rt = corpus_.tweet(alice_rt_);
  EXPECT_TRUE(rt.IsRetweet());
  EXPECT_EQ(rt.retweet_of, bob_t1_);
  EXPECT_EQ(rt.retweet_of_user, bob_);
  EXPECT_EQ(rt.text, "first post by bob");
}

TEST_F(CorpusFixture, RetweetChainNormalisesToRoot) {
  // bob retweets alice's retweet -> must reference the original bob_t1_.
  TweetId chain = *corpus_.AddTweet(bob_, 400, "", alice_rt_);
  corpus_.Finalize();
  EXPECT_EQ(corpus_.tweet(chain).retweet_of, bob_t1_);
  EXPECT_EQ(corpus_.tweet(chain).retweet_of_user, bob_);
}

TEST_F(CorpusFixture, RetweetOfMissingTweetFails) {
  Result<TweetId> result = corpus_.AddTweet(alice_, 500, "", 999);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusFixture, UnknownAuthorFails) {
  Result<TweetId> result = corpus_.AddTweet(77, 500, "text");
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(CorpusFixture, RetweetsAndOriginalsSplit) {
  EXPECT_EQ(corpus_.RetweetsOf(alice_), (std::vector<TweetId>{alice_rt_}));
  EXPECT_EQ(corpus_.OriginalsOf(alice_), (std::vector<TweetId>{alice_t1_}));
  EXPECT_EQ(corpus_.OriginalsOf(bob_),
            (std::vector<TweetId>{bob_t1_, bob_t2_}));
  EXPECT_TRUE(corpus_.RetweetsOf(bob_).empty());
}

TEST_F(CorpusFixture, IncomingIsFolloweesPosts) {
  EXPECT_EQ(corpus_.IncomingOf(alice_),
            (std::vector<TweetId>{bob_t1_, bob_t2_}));
  EXPECT_TRUE(corpus_.IncomingOf(bob_).empty());
}

TEST_F(CorpusFixture, FollowerTweets) {
  // bob's followers = {alice}; her posts are his F source.
  EXPECT_EQ(corpus_.FollowerTweetsOf(bob_),
            (std::vector<TweetId>{alice_rt_, alice_t1_}));
  EXPECT_TRUE(corpus_.FollowerTweetsOf(alice_).empty());
}

TEST_F(CorpusFixture, ReciprocalTweetsEmptyWithoutMutualEdge) {
  EXPECT_TRUE(corpus_.ReciprocalTweetsOf(alice_).empty());
  ASSERT_TRUE(corpus_.graph().AddFollow(bob_, alice_).ok());
  EXPECT_EQ(corpus_.ReciprocalTweetsOf(alice_),
            (std::vector<TweetId>{bob_t1_, bob_t2_}));
}

TEST_F(CorpusFixture, PostingRatio) {
  // alice: 2 outgoing, 2 incoming -> 1.0; bob: no followees -> +inf.
  EXPECT_DOUBLE_EQ(corpus_.PostingRatio(alice_), 1.0);
  EXPECT_TRUE(std::isinf(corpus_.PostingRatio(bob_)));
}

TEST(CorpusTest, TimelinesSortedChronologicallyAfterFinalize) {
  Corpus corpus;
  UserId u = corpus.AddUser("u");
  TweetId late = *corpus.AddTweet(u, 300, "late");
  TweetId early = *corpus.AddTweet(u, 100, "early");
  TweetId middle = *corpus.AddTweet(u, 200, "middle");
  corpus.Finalize();
  EXPECT_EQ(corpus.PostsOf(u), (std::vector<TweetId>{early, middle, late}));
}

TEST(CorpusTest, IncomingMergesMultipleFolloweesByTime) {
  Corpus corpus;
  UserId ego = corpus.AddUser("ego");
  UserId a = corpus.AddUser("a");
  UserId b = corpus.AddUser("b");
  ASSERT_TRUE(corpus.graph().AddFollow(ego, a).ok());
  ASSERT_TRUE(corpus.graph().AddFollow(ego, b).ok());
  TweetId t3 = *corpus.AddTweet(a, 300, "a3");
  TweetId t1 = *corpus.AddTweet(b, 100, "b1");
  TweetId t2 = *corpus.AddTweet(a, 200, "a2");
  corpus.Finalize();
  EXPECT_EQ(corpus.IncomingOf(ego), (std::vector<TweetId>{t1, t2, t3}));
}

// The store holds, for every tweet, exactly the tokens (bytes and type, in
// order) the tokenizer gives its text, at pool sizes 1, 2, 3 and the
// default. The generated corpus adds its retweets with empty texts (each
// carries its original's), and its URLs are tokens longer than 15 bytes; a
// tail of tweets without tokens runs across a chunk boundary, and the tweet
// count is not a multiple of the chunk size.
TEST(TokenizedCorpusTest, StoreMatchesTheTokenizer) {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 91;
  spec.background_users = 30;
  spec.seekers.count = 3;
  spec.balanced.count = 3;
  spec.producers.count = 2;
  spec.extras.count = 0;
  auto dataset = synth::GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok());
  Corpus& corpus = dataset->corpus;
  constexpr size_t kChunk = TokenizedCorpus::kChunkTweets;
  const size_t tail = kChunk - corpus.num_tweets() % kChunk + 1;
  for (size_t i = 0; i < tail; ++i) {
    ASSERT_TRUE(corpus.AddTweet(0, 1'000'000'000, i % 2 ? "... !!" : "").ok());
  }
  ASSERT_TRUE(
      corpus.AddTweet(0, 1'000'000'001, "see https://example.com/x/y").ok());
  corpus.Finalize();
  ASSERT_GT(corpus.num_tweets(), 4 * kChunk);
  ASSERT_NE(corpus.num_tweets() % kChunk, 0u);

  const text::Tokenizer tokenizer;
  std::vector<std::vector<text::Token>> want;
  size_t retweets = 0, long_tokens = 0;
  for (TweetId id = 0; id < corpus.num_tweets(); ++id) {
    retweets += corpus.tweet(id).IsRetweet() ? 1 : 0;
    want.push_back(tokenizer.Tokenize(corpus.tweet(id).text));
    for (const text::Token& token : want.back()) {
      long_tokens += token.text.size() > 15 ? 1 : 0;
    }
  }
  ASSERT_GT(retweets, 0u);
  ASSERT_GT(long_tokens, 0u);

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool three(3);
  for (ThreadPool* pool :
       {&one, &two, &three, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(pool == nullptr ? "default pool"
                                 : std::to_string(pool->num_threads()) +
                                       "-thread pool");
    const TokenizedCorpus tokenized(corpus, tokenizer, pool);
    for (TweetId id = 0; id < corpus.num_tweets(); ++id) {
      const text::TokenRange got = tokenized.TokensOf(id);
      ASSERT_EQ(got.size(), want[id].size()) << "tweet " << id;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].text, want[id][i].text) << "tweet " << id;
        ASSERT_EQ(got[i].type, want[id][i].type) << "tweet " << id;
      }
    }
    EXPECT_EQ(tokenized.FirstToken(corpus.num_tweets()),
              tokenized.tokens().size());
  }
}

}  // namespace
}  // namespace microrec::corpus
