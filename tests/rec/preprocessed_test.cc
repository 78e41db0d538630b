#include "rec/preprocessed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "corpus/user_types.h"
#include "eval/experiment.h"
#include "snapshot/format.h"
#include "synth/generator.h"
#include "text/ngram.h"
#include "text/vocabulary.h"
#include "util/string_util.h"

namespace microrec::rec {
namespace {

class PreprocessedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus::UserId u = corpus_.AddUser("u");
    // "the" dominates; one tweet has emphatic lengthening.
    ids_.push_back(*corpus_.AddTweet(u, 1, "the the the cat sat"));
    ids_.push_back(*corpus_.AddTweet(u, 2, "the dog ran yeeees"));
    corpus_.Finalize();
  }

  corpus::Corpus corpus_;
  std::vector<corpus::TweetId> ids_;
};

TEST_F(PreprocessedFixture, StopFilterRemovesTopTokens) {
  PreprocessedCorpus pre(corpus_, ids_, /*stop_top_k=*/1);
  EXPECT_TRUE(pre.stop_filter().IsStop("the"));
  for (corpus::TweetId id : ids_) {
    for (std::string_view token : pre.Filtered(id)) {
      EXPECT_NE(token, "the");
    }
  }
  // Unfiltered typed tokens still contain it.
  bool saw_the = false;
  for (const auto& token : pre.tokenized().TokensOf(ids_[0])) {
    saw_the |= token.text == "the";
  }
  EXPECT_TRUE(saw_the);
}

TEST_F(PreprocessedFixture, EmptyStopBasisKeepsEverything) {
  PreprocessedCorpus pre(corpus_, {}, 100);
  EXPECT_EQ(pre.stop_filter().size(), 0u);
  EXPECT_EQ(pre.Filtered(ids_[0]).size(), 5u);
}

TEST_F(PreprocessedFixture, DefaultTokenizerSqueezes) {
  PreprocessedCorpus pre(corpus_, {}, 0);
  const auto& tokens = pre.Filtered(ids_[1]);
  EXPECT_EQ(tokens.back(), "yees");
}

TEST_F(PreprocessedFixture, TokenizerOptionsAreHonoured) {
  text::TokenizerOptions options;
  options.squeeze_repeats = false;
  PreprocessedCorpus pre(corpus_, {}, 0, nullptr, options);
  const auto& tokens = pre.Filtered(ids_[1]);
  EXPECT_EQ(tokens.back(), "yeeees");
}

TEST_F(PreprocessedFixture, ParallelAndSerialAgree) {
  ThreadPool one(1);
  ThreadPool pool(4);
  PreprocessedCorpus serial(corpus_, ids_, 2, &one);
  PreprocessedCorpus parallel(corpus_, ids_, 2, &pool);
  for (corpus::TweetId id : ids_) {
    EXPECT_TRUE(
        std::ranges::equal(serial.Filtered(id), parallel.Filtered(id)));
  }
  EXPECT_EQ(serial.stop_filter().size(), parallel.stop_filter().size());
}

constexpr std::pair<bag::NgramKind, int> kGramTables[] = {
    {bag::NgramKind::kToken, 1}, {bag::NgramKind::kToken, 2},
    {bag::NgramKind::kToken, 3}, {bag::NgramKind::kChar, 2},
    {bag::NgramKind::kChar, 3},  {bag::NgramKind::kChar, 4}};

// What a (kind, n) gram table must hold: the dictionary that interning
// every tweet's extracted grams, tweet after tweet, gives, and each tweet's
// ids in it.
struct InternedGrams {
  text::Vocabulary dictionary;
  std::vector<std::vector<text::TermId>> ids;  // per tweet

  uint64_t Fingerprint() const {
    std::vector<std::string_view> terms;
    for (text::TermId id = 0; id < dictionary.size(); ++id) {
      terms.push_back(dictionary.TermOf(id));
    }
    return snapshot::FingerprintTerms(terms);
  }
};

InternedGrams InternInTweetOrder(const PreprocessedCorpus& pre,
                                 bag::NgramKind kind, int n) {
  InternedGrams out;
  for (corpus::TweetId id = 0; id < pre.corpus().num_tweets(); ++id) {
    out.ids.push_back(out.dictionary.InternAll(
        kind == bag::NgramKind::kToken
            ? text::TokenNgrams(pre.Filtered(id), n)
            : text::CharNgrams(Join(pre.Filtered(id), " "), n)));
  }
  return out;
}

// The gram table loses nothing: every tweet's ids map back to exactly the
// strings today's extraction gives, in order, for every (kind, n) the grid
// uses, on tweets that are empty, one token, CJK or emoji.
TEST(GramTableTest, IdsMapBackToTheExtractedGramsInOrder) {
  corpus::Corpus corpus;
  corpus::UserId u = corpus.AddUser("u");
  const std::vector<std::string> texts = {
      "",
      "solo",
      "...",
      "日本語のテキスト 東京タワー",
      "party 🎉🎉 time 😀 ok",
      "the cat sat on the mat with the cat",
      "東京 cat 🎉",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(corpus.AddTweet(u, static_cast<corpus::Timestamp>(i + 1),
                                texts[i])
                    .ok());
  }
  corpus.Finalize();
  PreprocessedCorpus pre(corpus, {}, 0);
  ASSERT_TRUE(pre.Filtered(0).empty());
  ASSERT_EQ(pre.Filtered(1).size(), 1u);

  for (const auto& [kind, n] : kGramTables) {
    SCOPED_TRACE((kind == bag::NgramKind::kToken ? "token n=" : "char n=") +
                 std::to_string(n));
    const GramTable& table = pre.Grams(kind, n);
    const InternedGrams want = InternInTweetOrder(pre, kind, n);
    EXPECT_EQ(table.size(), want.dictionary.size());
    for (corpus::TweetId id = 0; id < corpus.num_tweets(); ++id) {
      EXPECT_TRUE(std::ranges::equal(table.Of(id), want.ids[id]))
          << "tweet " << id;
    }
    EXPECT_EQ(table.fingerprint(), want.Fingerprint());
    EXPECT_EQ(&pre.Grams(kind, n), &table);  // built once, then shared
  }
}

// Set-up at pool sizes 1, 2, 3 and the default (one worker per hardware
// thread) over a generated corpus: the same stop set, filtered tokens and,
// in all six gram tables, the same dictionary order, ids and fingerprint.
TEST(PreprocessedPoolSizeTest, EveryPoolSizeBuildsTheSameCorpus) {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 77;
  spec.background_users = 40;
  spec.seekers.count = 3;
  spec.balanced.count = 3;
  spec.producers.count = 2;
  spec.extras.count = 0;
  auto dataset = synth::GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok());
  const corpus::Corpus& corpus = dataset->corpus;
  ASSERT_GT(corpus.num_tweets(), 2000u);
  ASSERT_LT(corpus.num_tweets(), 10000u);
  std::vector<corpus::TweetId> stop_basis;
  for (corpus::TweetId id = 0; id < corpus.num_tweets(); id += 2) {
    stop_basis.push_back(id);
  }

  ThreadPool one(1);
  const PreprocessedCorpus reference(corpus, stop_basis, 100, &one);
  ASSERT_EQ(reference.stop_filter().size(), 100u);
  std::vector<InternedGrams> interned;
  for (const auto& [kind, n] : kGramTables) {
    interned.push_back(InternInTweetOrder(reference, kind, n));
  }
  ThreadPool two(2);
  ThreadPool three(3);
  for (ThreadPool* pool : {&two, &three, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(pool == nullptr ? "default pool"
                                 : std::to_string(pool->num_threads()) +
                                       "-thread pool");
    const PreprocessedCorpus pre(corpus, stop_basis, 100, pool);
    // Every stop token is a corpus token, so equal sizes and equal
    // membership over the corpus's tokens mean equal sets.
    EXPECT_EQ(pre.stop_filter().size(), reference.stop_filter().size());
    for (corpus::TweetId id = 0; id < corpus.num_tweets(); ++id) {
      for (const text::TokenView token : pre.tokenized().TokensOf(id)) {
        ASSERT_EQ(pre.stop_filter().IsStop(token.text),
                  reference.stop_filter().IsStop(token.text))
            << token.text;
      }
      ASSERT_TRUE(
          std::ranges::equal(pre.Filtered(id), reference.Filtered(id)))
          << "tweet " << id;
    }
    for (size_t t = 0; t < std::size(kGramTables); ++t) {
      const auto& [kind, n] = kGramTables[t];
      SCOPED_TRACE((kind == bag::NgramKind::kToken ? "token n=" : "char n=") +
                   std::to_string(n));
      const InternedGrams& want = interned[t];
      const GramTable& got = pre.Grams(kind, n);
      ASSERT_EQ(got.size(), want.dictionary.size());
      for (corpus::TweetId id = 0; id < corpus.num_tweets(); ++id) {
        ASSERT_TRUE(std::ranges::equal(got.Of(id), want.ids[id]))
            << "tweet " << id;
      }
      EXPECT_EQ(got.fingerprint(), want.Fingerprint());
    }
  }
}

// FNV-1a over the little-endian bytes of `value`.
void MixU64(uint64_t value, uint64_t* hash) {
  for (int b = 0; b < 8; ++b) {
    *hash ^= (value >> (8 * b)) & 0xffu;
    *hash *= 0x100000001b3ULL;
  }
}

// The benchmark corpus's six gram tables, pinned: DatasetSpec::Small() at
// seed 42 with the benchmark's stop basis (every cohort user's posts, top
// 100). For each table, the number of distinct grams, the fingerprint and
// one FNV-1a hash over every tweet's gram count and ids, which covers the
// ids and the offsets.
TEST(GramTablePinTest, BenchmarkCorpusTablesArePinned) {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 42;
  auto dataset = synth::GenerateDataset(spec);
  ASSERT_TRUE(dataset.ok());
  const corpus::Corpus& corpus = dataset->corpus;
  const corpus::UserCohort cohort = corpus::SelectCohort(corpus, spec.cohort);
  const PreprocessedCorpus pre(corpus, eval::StopBasis(corpus, cohort),
                               eval::kStopTopK);
  ASSERT_EQ(pre.stop_filter().size(), 100u);

  struct Pin {
    bag::NgramKind kind;
    int n;
    size_t size;
    uint64_t fingerprint;
    uint64_t ids_hash;
  };
  const Pin pins[] = {
      {bag::NgramKind::kToken, 1, 28998, 0x517912ab49700f2dULL,
       0x7f42b6eeba3b349dULL},
      {bag::NgramKind::kToken, 2, 59274, 0xe160eb977df67993ULL,
       0x2319fe1c1743fe7aULL},
      {bag::NgramKind::kToken, 3, 66273, 0x5ab650853ddc99faULL,
       0xfefad49b04d44befULL},
      {bag::NgramKind::kChar, 2, 9168, 0x3df59f2876a60f76ULL,
       0xf41f90598a353515ULL},
      {bag::NgramKind::kChar, 3, 23799, 0x97c3bd4ed28a8ccfULL,
       0xf37f33643b6c19d2ULL},
      {bag::NgramKind::kChar, 4, 57944, 0xe273e54330004cc8ULL,
       0xe77df5a162c561b3ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(
        (pin.kind == bag::NgramKind::kToken ? "token n=" : "char n=") +
        std::to_string(pin.n));
    const GramTable& table = pre.Grams(pin.kind, pin.n);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (corpus::TweetId id = 0; id < corpus.num_tweets(); ++id) {
      MixU64(table.Of(id).size(), &hash);
      for (text::TermId gram : table.Of(id)) MixU64(gram, &hash);
    }
    EXPECT_EQ(table.size(), pin.size);
    EXPECT_EQ(table.fingerprint(), pin.fingerprint);
    EXPECT_EQ(hash, pin.ids_hash);
  }
}

}  // namespace
}  // namespace microrec::rec
