#include "synth/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "corpus/sources.h"

namespace microrec::synth {
namespace {

// One shared dataset for the whole suite (generation costs ~1s).
class GeneratorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = DatasetSpec::Small();
    spec.seed = 99;
    dataset_ = new SyntheticDataset(std::move(*GenerateDataset(spec)));
    cohort_ = new corpus::UserCohort(
        corpus::SelectCohort(dataset_->corpus, spec.cohort));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete cohort_;
    dataset_ = nullptr;
    cohort_ = nullptr;
  }

  static SyntheticDataset* dataset_;
  static corpus::UserCohort* cohort_;
};

SyntheticDataset* GeneratorFixture::dataset_ = nullptr;
corpus::UserCohort* GeneratorFixture::cohort_ = nullptr;

TEST_F(GeneratorFixture, PopulationSizesMatchSpec) {
  const DatasetSpec& spec = dataset_->spec;
  EXPECT_EQ(dataset_->corpus.num_users(),
            spec.background_users + spec.seekers.count + spec.balanced.count +
                spec.producers.count + spec.extras.count);
  EXPECT_GT(dataset_->corpus.num_tweets(), 1000u);
}

TEST_F(GeneratorFixture, CohortHasPaperShape) {
  // 20 IS + 20 BU + 9 IP, 60 in All Users (Table 2).
  EXPECT_EQ(cohort_->seekers.size(), 20u);
  EXPECT_EQ(cohort_->balanced.size(), 20u);
  EXPECT_EQ(cohort_->producers.size(), 9u);
  EXPECT_EQ(cohort_->all.size(), 60u);
}

TEST_F(GeneratorFixture, PostingRatiosMatchGroups) {
  const corpus::Corpus& corpus = dataset_->corpus;
  for (corpus::UserId u : cohort_->seekers) {
    EXPECT_LT(corpus.PostingRatio(u), 0.5);
  }
  for (corpus::UserId u : cohort_->producers) {
    EXPECT_GT(corpus.PostingRatio(u), 2.0);
  }
  for (corpus::UserId u : cohort_->balanced) {
    double ratio = corpus.PostingRatio(u);
    EXPECT_GE(ratio, 0.5);
    EXPECT_LE(ratio, 2.0);
  }
}

TEST_F(GeneratorFixture, RetweetsReferenceEarlierOriginals) {
  const corpus::Corpus& corpus = dataset_->corpus;
  for (const corpus::Tweet& tweet : corpus.tweets()) {
    if (!tweet.IsRetweet()) continue;
    const corpus::Tweet& original = corpus.tweet(tweet.retweet_of);
    EXPECT_FALSE(original.IsRetweet());
    EXPECT_GE(tweet.time, original.time);
    EXPECT_EQ(tweet.text, original.text);
    EXPECT_NE(tweet.author, original.author);
  }
}

TEST_F(GeneratorFixture, TweetTopicsRecorded) {
  const auto& topics = dataset_->truth.tweet_topic;
  ASSERT_EQ(topics.size(), dataset_->corpus.num_tweets());
  int num_topics = dataset_->spec.language_model.num_topics;
  for (int topic : topics) {
    EXPECT_GE(topic, 0);
    EXPECT_LT(topic, num_topics);
  }
}

TEST_F(GeneratorFixture, RetweetsAreInterestAligned) {
  // A user's retweets must concentrate on her high-interest coarse topics:
  // the average θ_u[topic(rt)] over retweets should clearly beat the
  // uniform baseline 1/num_topics. (The decision is made at subtopic
  // granularity, which implies coarse alignment too.)
  const corpus::Corpus& corpus = dataset_->corpus;
  const GroundTruth& truth = dataset_->truth;
  double total = 0.0;
  size_t count = 0;
  for (corpus::UserId u : cohort_->all) {
    for (corpus::TweetId rt : corpus.RetweetsOf(u)) {
      total += truth.user_interest[u][truth.tweet_topic[rt]];
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  double uniform = 1.0 / dataset_->spec.language_model.num_topics;
  EXPECT_GT(total / static_cast<double>(count), 1.5 * uniform);
}

TEST_F(GeneratorFixture, TweetSubtopicsRecorded) {
  const auto& subtopics = dataset_->truth.tweet_subtopic;
  ASSERT_EQ(subtopics.size(), dataset_->corpus.num_tweets());
  int per_topic = dataset_->spec.language_model.subtopics_per_topic;
  for (int subtopic : subtopics) {
    EXPECT_GE(subtopic, 0);
    EXPECT_LT(subtopic, per_topic);
  }
}

TEST_F(GeneratorFixture, FollowEdgesAreAffinityBiased) {
  // Average cosine(θ_follower, ψ_followee) over edges must beat the
  // average over random pairs.
  const corpus::Corpus& corpus = dataset_->corpus;
  const GroundTruth& truth = dataset_->truth;
  auto cosine = [](const std::vector<double>& a,
                   const std::vector<double>& b) {
    double dot = 0, ma = 0, mb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      ma += a[i] * a[i];
      mb += b[i] * b[i];
    }
    return dot / std::sqrt(ma * mb);
  };
  double edge_sim = 0.0;
  size_t edges = 0;
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    for (corpus::UserId v : corpus.graph().Followees(u)) {
      edge_sim += cosine(truth.user_interest[u], truth.user_content[v]);
      ++edges;
    }
  }
  edge_sim /= static_cast<double>(edges);

  Rng rng(5);
  double random_sim = 0.0;
  constexpr int kPairs = 2000;
  for (int i = 0; i < kPairs; ++i) {
    corpus::UserId u = rng.UniformU32(
        static_cast<uint32_t>(corpus.num_users()));
    corpus::UserId v = rng.UniformU32(
        static_cast<uint32_t>(corpus.num_users()));
    random_sim += cosine(truth.user_interest[u], truth.user_content[v]);
  }
  random_sim /= kPairs;
  EXPECT_GT(edge_sim, random_sim * 1.5);
}

TEST_F(GeneratorFixture, SubjectsHaveEnoughNegativesInTestPhase) {
  // The evaluation protocol needs non-retweeted incoming tweets; verify the
  // incoming_retweet_cap keeps most of the timeline unretweeted.
  const corpus::Corpus& corpus = dataset_->corpus;
  for (corpus::UserId u : cohort_->all) {
    std::set<corpus::TweetId> retweeted;
    for (corpus::TweetId rt : corpus.RetweetsOf(u)) {
      retweeted.insert(corpus.tweet(rt).retweet_of);
    }
    size_t incoming = 0, incoming_retweeted = 0;
    for (corpus::TweetId id : corpus.IncomingOf(u)) {
      const corpus::Tweet& tweet = corpus.tweet(id);
      if (tweet.IsRetweet()) continue;
      ++incoming;
      incoming_retweeted += retweeted.count(id);
    }
    ASSERT_GT(incoming, 0u);
    // The per-group caps top out at 0.45 (IP, matching Table 2's
    // retweets >> incoming structure); every user must still leave a
    // majority of the timeline unretweeted for negative sampling.
    EXPECT_LT(static_cast<double>(incoming_retweeted) /
                  static_cast<double>(incoming),
              0.55)
        << "user " << u;
  }
}

TEST_F(GeneratorFixture, MostUsersTweetInEnglish) {
  size_t english = 0;
  for (text::Language lang : dataset_->truth.user_language) {
    english += lang == text::Language::kEnglish ? 1 : 0;
  }
  double share = static_cast<double>(english) /
                 static_cast<double>(dataset_->truth.user_language.size());
  EXPECT_GT(share, 0.6);  // Table 3: ~83% of tweets are English
}

TEST(GeneratorTest, DeterministicForSeed) {
  DatasetSpec spec = DatasetSpec::Small();
  spec.seed = 1234;
  auto a = GenerateDataset(spec);
  auto b = GenerateDataset(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->corpus.num_tweets(), b->corpus.num_tweets());
  for (size_t i = 0; i < a->corpus.num_tweets(); i += 97) {
    EXPECT_EQ(a->corpus.tweet(i).text, b->corpus.tweet(i).text);
    EXPECT_EQ(a->corpus.tweet(i).time, b->corpus.tweet(i).time);
  }
}

// FNV-1a over the little-endian bytes of `value`.
void MixU64(uint64_t value, uint64_t* hash) {
  for (int b = 0; b < 8; ++b) {
    *hash ^= (value >> (8 * b)) & 0xffu;
    *hash *= 0x100000001b3ULL;
  }
}

// The corpus itself, not only the scores downstream of it: one FNV-1a hash
// over every tweet's author, time, retweet_of and text bytes (after its
// length) in id order, then every user's follow edges in id order.
// Recorded before the syllable tables were split once per process.
TEST(GeneratorTest, SmallCorpusIsPinned) {
  DatasetSpec spec = DatasetSpec::Small();
  spec.seed = 42;
  auto dataset = GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok());
  const corpus::Corpus& corpus = dataset->corpus;
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const corpus::Tweet& tweet : corpus.tweets()) {
    MixU64(tweet.author, &hash);
    MixU64(static_cast<uint64_t>(tweet.time), &hash);
    MixU64(tweet.retweet_of, &hash);
    MixU64(tweet.text.size(), &hash);
    for (unsigned char byte : tweet.text) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
  }
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    const std::vector<corpus::UserId>& followees = corpus.graph().Followees(u);
    MixU64(followees.size(), &hash);
    for (corpus::UserId v : followees) MixU64(v, &hash);
  }
  EXPECT_EQ(corpus.num_tweets(), 28151u);
  EXPECT_EQ(hash, 0x4609e542cd23d9a7ULL);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  DatasetSpec spec = DatasetSpec::Small();
  spec.seed = 1;
  auto a = GenerateDataset(spec);
  spec.seed = 2;
  auto b = GenerateDataset(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->corpus.tweet(0).text, b->corpus.tweet(0).text);
}

TEST(GeneratorTest, RejectsDegenerateSpecs) {
  DatasetSpec spec = DatasetSpec::Small();
  spec.language_model.num_topics = 1;
  EXPECT_FALSE(GenerateDataset(spec).ok());

  spec = DatasetSpec::Small();
  spec.seekers.count = 0;
  spec.balanced.count = 0;
  spec.producers.count = 0;
  spec.extras.count = 0;
  EXPECT_FALSE(GenerateDataset(spec).ok());
}

TEST(GeneratorTest, FromEnvDefaultsToSmall) {
  DatasetSpec spec = DatasetSpec::FromEnv();
  EXPECT_EQ(spec.background_users, DatasetSpec::Small().background_users);
}

}  // namespace
}  // namespace microrec::synth
