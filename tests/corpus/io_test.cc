#include "corpus/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "synth/generator.h"

namespace microrec::corpus {
namespace {

TEST(TweetTextEscapingTest, RoundTripsSpecials) {
  for (const std::string& text :
       {std::string("plain"), std::string("tab\there"),
        std::string("line\nbreak"), std::string("back\\slash"),
        std::string("\t\n\r\\ all"), std::string("")}) {
    EXPECT_EQ(UnescapeTweetText(EscapeTweetText(text)), text);
  }
}

TEST(TweetTextEscapingTest, EscapedFormHasNoRawSpecials) {
  std::string escaped = EscapeTweetText("a\tb\nc");
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
}

TEST(TweetTextEscapingTest, UnknownEscapePassesThrough) {
  EXPECT_EQ(UnescapeTweetText("a\\qb"), "a\\qb");
  EXPECT_EQ(UnescapeTweetText("trailing\\"), "trailing\\");
}

Corpus MakeSample() {
  Corpus corpus;
  UserId alice = corpus.AddUser("alice");
  UserId bob = corpus.AddUser("bob");
  EXPECT_TRUE(corpus.graph().AddFollow(alice, bob).ok());
  TweetId original = *corpus.AddTweet(bob, 100, "tab\tand\nnewline #x");
  (void)*corpus.AddTweet(alice, 150, "", original);
  (void)*corpus.AddTweet(alice, 200, "plain tweet");
  corpus.Finalize();
  return corpus;
}

TEST(CorpusIoTest, StreamRoundTrip) {
  Corpus original = MakeSample();
  std::ostringstream users_os, tweets_os;
  ASSERT_TRUE(WriteUsers(original, users_os).ok());
  ASSERT_TRUE(WriteTweets(original, tweets_os).ok());

  std::istringstream users_is(users_os.str());
  std::istringstream tweets_is(tweets_os.str());
  Result<Corpus> loaded = ReadCorpus(users_is, tweets_is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_users(), original.num_users());
  EXPECT_EQ(loaded->num_tweets(), original.num_tweets());
  for (UserId u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(loaded->user(u).handle, original.user(u).handle);
    EXPECT_EQ(loaded->graph().Followees(u), original.graph().Followees(u));
  }
  for (TweetId id = 0; id < original.num_tweets(); ++id) {
    EXPECT_EQ(loaded->tweet(id).text, original.tweet(id).text);
    EXPECT_EQ(loaded->tweet(id).time, original.tweet(id).time);
    EXPECT_EQ(loaded->tweet(id).author, original.tweet(id).author);
    EXPECT_EQ(loaded->tweet(id).retweet_of, original.tweet(id).retweet_of);
  }
}

TEST(CorpusIoTest, FileRoundTripOfSyntheticCorpus) {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 77;
  spec.background_users = 30;
  spec.seekers.count = 2;
  spec.balanced.count = 2;
  spec.producers.count = 1;
  spec.extras.count = 0;
  auto dataset = synth::GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok());

  std::string dir =
      (std::filesystem::temp_directory_path() / "microrec_io_test").string();
  ASSERT_TRUE(SaveCorpus(dataset->corpus, dir).ok());
  Result<Corpus> loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_tweets(), dataset->corpus.num_tweets());
  EXPECT_EQ(loaded->num_users(), dataset->corpus.num_users());
  // Spot-check timelines (sorted identically after Finalize).
  for (UserId u = 0; u < loaded->num_users(); u += 7) {
    EXPECT_EQ(loaded->PostsOf(u), dataset->corpus.PostsOf(u));
  }
  std::filesystem::remove_all(dir);
}

TEST(CorpusIoTest, LoadMissingDirectoryFails) {
  EXPECT_EQ(LoadCorpus("/nonexistent/path/zz").status().code(),
            StatusCode::kNotFound);
}

TEST(CorpusIoTest, MalformedRowsRejected) {
  {
    std::istringstream users("0\talice\nBADROW");
    std::istringstream tweets("");
    EXPECT_FALSE(ReadCorpus(users, tweets).ok());
  }
  {
    std::istringstream users("0\talice");
    std::istringstream tweets("0\t0\tnot_a_time\t-\thello");
    EXPECT_FALSE(ReadCorpus(users, tweets).ok());
  }
  {
    // Non-dense tweet ids.
    std::istringstream users("0\talice");
    std::istringstream tweets("5\t0\t1\t-\thello");
    EXPECT_FALSE(ReadCorpus(users, tweets).ok());
  }
  {
    // Edge to unknown user.
    std::istringstream users("0\talice\nF\t0\t9");
    std::istringstream tweets("");
    EXPECT_FALSE(ReadCorpus(users, tweets).ok());
  }
}

// Table-driven malformed-input cases: every rejection must carry the file
// and 1-based line number so a broken import of a multi-million-row TSV is
// diagnosable.
struct MalformedCase {
  const char* name;
  const char* users;
  const char* tweets;
  const char* expect_in_message;  // substring, typically "file:line"
};

// Test names show the parameter as gtest prints it: its name, not the
// struct's bytes (string-literal addresses that change from run to run).
void PrintTo(const MalformedCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class MalformedTsvTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedTsvTest, RejectedWithFileAndLine) {
  const MalformedCase& test_case = GetParam();
  std::istringstream users(test_case.users);
  std::istringstream tweets(test_case.tweets);
  Result<Corpus> loaded = ReadCorpus(users, tweets);
  ASSERT_FALSE(loaded.ok()) << test_case.name;
  EXPECT_NE(loaded.status().message().find(test_case.expect_in_message),
            std::string::npos)
      << test_case.name << ": " << loaded.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Rows, MalformedTsvTest,
    ::testing::Values(
        MalformedCase{"user_row_too_short", "0\talice\nBADROW", "",
                      "users.tsv:2"},
        MalformedCase{"user_row_too_long", "0\talice\textra", "",
                      "users.tsv:1"},
        MalformedCase{"user_id_not_numeric", "x\talice", "", "users.tsv:1"},
        MalformedCase{"user_ids_not_dense", "0\talice\n5\tbob", "",
                      "users.tsv:2"},
        MalformedCase{"follow_row_truncated", "0\talice\nF\t0", "",
                      "users.tsv:2"},
        MalformedCase{"follow_unknown_followee", "0\talice\nF\t0\t9", "",
                      "users.tsv:2"},
        MalformedCase{"follow_bad_follower_id", "0\talice\nF\tx\t0", "",
                      "users.tsv:2"},
        MalformedCase{"tweet_row_truncated", "0\talice", "0\t0\t1\t-",
                      "tweets.tsv:1"},
        MalformedCase{"tweet_bad_time", "0\talice",
                      "0\t0\tnot_a_time\t-\thello", "tweets.tsv:1"},
        MalformedCase{"tweet_ids_not_dense", "0\talice", "5\t0\t1\t-\thello",
                      "tweets.tsv:1"},
        MalformedCase{"tweet_author_out_of_range", "0\talice",
                      "0\t7\t1\t-\thello", "tweets.tsv:1"},
        MalformedCase{"tweet_bad_retweet_id", "0\talice",
                      "0\t0\t1\tzz\thello", "tweets.tsv:1"},
        MalformedCase{"dangling_retweet_of", "0\talice",
                      "0\t0\t1\t-\toriginal\n1\t0\t2\t9\tretweet",
                      "tweets.tsv:2"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(CorpusIoTest, NegativeTimestampsSupported) {
  std::istringstream users("0\talice");
  std::istringstream tweets("0\t0\t-50\t-\tearly tweet");
  Result<Corpus> loaded = ReadCorpus(users, tweets);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->tweet(0).time, -50);
}

}  // namespace
}  // namespace microrec::corpus
