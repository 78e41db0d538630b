#include "corpus/stop_tokens.h"

#include <gtest/gtest.h>

namespace microrec::corpus {
namespace {

class StopTokensFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    UserId u = corpus_.AddUser("u");
    // "the" appears 3 times, "cat" twice, everything else once.
    ids_.push_back(*corpus_.AddTweet(u, 1, "the cat sat"));
    ids_.push_back(*corpus_.AddTweet(u, 2, "the cat ran"));
    ids_.push_back(*corpus_.AddTweet(u, 3, "the dog barked"));
    corpus_.Finalize();
    tokenized_ = std::make_unique<TokenizedCorpus>(corpus_, text::Tokenizer());
  }

  Corpus corpus_;
  std::unique_ptr<TokenizedCorpus> tokenized_;
  std::vector<TweetId> ids_;
};

TEST_F(StopTokensFixture, TopKByFrequency) {
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 1);
  EXPECT_TRUE(filter.IsStop("the"));
  EXPECT_FALSE(filter.IsStop("cat"));
  EXPECT_EQ(filter.size(), 1u);
}

TEST_F(StopTokensFixture, TopTwoIncludesSecondMostFrequent) {
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 2);
  EXPECT_TRUE(filter.IsStop("the"));
  EXPECT_TRUE(filter.IsStop("cat"));
  EXPECT_FALSE(filter.IsStop("dog"));
}

TEST_F(StopTokensFixture, TiesBrokenLexicographically) {
  // Frequency-1 tokens: barked, dog, ran, sat. With k=3 the third slot goes
  // to the lexicographically smallest single-count token: "barked".
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 3);
  EXPECT_TRUE(filter.IsStop("barked"));
  EXPECT_FALSE(filter.IsStop("sat"));
}

TEST_F(StopTokensFixture, KLargerThanVocabulary) {
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 100);
  EXPECT_EQ(filter.size(), 6u);  // all distinct tokens
}

TEST_F(StopTokensFixture, FilterRemovesStopTokens) {
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 1);
  const text::TokenRange tokens = tokenized_->TokensOf(ids_[0]);
  auto filtered = filter.Filter(tokens);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0], "cat");
  EXPECT_EQ(filtered[1], "sat");
  // Views into the tokens, not copies.
  EXPECT_EQ(filtered[0].data(), tokens[1].text.data());
}

TEST_F(StopTokensFixture, FilterStringsVariant) {
  auto filter = StopTokenFilter::FromTopFrequent(*tokenized_, ids_, 1);
  const std::vector<text::Token> tokens = {{"the"}, {"cat"}, {"the"}};
  auto filtered = filter.Filter(tokens);
  EXPECT_EQ(filtered, (std::vector<std::string_view>{"cat"}));
}

TEST(StopTokensTest, EmptyFilterKeepsEverything) {
  StopTokenFilter filter;
  EXPECT_FALSE(filter.IsStop("anything"));
  EXPECT_EQ(filter.size(), 0u);
}

}  // namespace
}  // namespace microrec::corpus
