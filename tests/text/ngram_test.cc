#include "text/ngram.h"

#include <gtest/gtest.h>

namespace microrec::text {
namespace {

using Tokens = std::vector<std::string_view>;

TEST(TokenNgramsTest, Unigrams) {
  EXPECT_EQ(TokenNgrams(Tokens{"a", "b", "c"}, 1),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TokenNgramsTest, Bigrams) {
  auto grams = TokenNgrams(Tokens{"a", "b", "c"}, 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], std::string("a") + kNgramJoiner + "b");
  EXPECT_EQ(grams[1], std::string("b") + kNgramJoiner + "c");
}

TEST(TokenNgramsTest, OrderMatters) {
  auto ab = TokenNgrams(Tokens{"bob", "sues"}, 2);
  auto ba = TokenNgrams(Tokens{"sues", "bob"}, 2);
  ASSERT_EQ(ab.size(), 1u);
  ASSERT_EQ(ba.size(), 1u);
  EXPECT_NE(ab[0], ba[0]);
}

TEST(TokenNgramsTest, TooShortDocumentYieldsNothing) {
  EXPECT_TRUE(TokenNgrams(Tokens{"a", "b"}, 3).empty());
  EXPECT_TRUE(TokenNgrams({}, 1).empty());
}

TEST(TokenNgramsTest, JoinerPreventsCollisions) {
  // ("ab", "c") must differ from ("a", "bc").
  auto first = TokenNgrams(Tokens{"ab", "c"}, 2);
  auto second = TokenNgrams(Tokens{"a", "bc"}, 2);
  EXPECT_NE(first[0], second[0]);
}

TEST(CharNgramsTest, AsciiBigrams) {
  auto grams = CharNgrams("abc", 2);
  EXPECT_EQ(grams, (std::vector<std::string>{"ab", "bc"}));
}

TEST(CharNgramsTest, SpansTokenBoundaries) {
  auto grams = CharNgrams("ab cd", 3);
  // Normalised codepoints: a b ' ' c d -> "ab ", "b c", " cd".
  EXPECT_EQ(grams, (std::vector<std::string>{"ab ", "b c", " cd"}));
}

TEST(CharNgramsTest, CollapsesWhitespaceRuns) {
  EXPECT_EQ(CharNgrams("a   b", 2), CharNgrams("a b", 2));
  EXPECT_EQ(CharNgrams("  a b  ", 2), CharNgrams("a b", 2));
}

TEST(CharNgramsTest, WorksOnCodepointsNotBytes) {
  // 3 CJK chars = 9 bytes but 3 codepoints -> two codepoint bigrams.
  auto grams = CharNgrams("日本語", 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "日本");
  EXPECT_EQ(grams[1], "本語");
}

TEST(CharNgramsTest, MisspellingSharesMostNgrams) {
  // "tweet" vs "twete": character bigrams overlap heavily (Section 3.1).
  auto a = CharNgrams("tweet", 2);
  auto b = CharNgrams("twete", 2);
  int shared = 0;
  for (const auto& gram : a) {
    for (const auto& other : b) {
      if (gram == other) {
        ++shared;
        break;
      }
    }
  }
  EXPECT_GE(shared, 3);
}

TEST(CharNgramsTest, TooShortTextYieldsNothing) {
  EXPECT_TRUE(CharNgrams("ab", 3).empty());
  EXPECT_TRUE(CharNgrams("", 1).empty());
}

TEST(NormalizedCodepointsTest, TrimsAndCollapses) {
  auto cps = NormalizedCodepoints("  a  b ");
  EXPECT_EQ(cps, (std::vector<uint32_t>{'a', ' ', 'b'}));
}

}  // namespace
}  // namespace microrec::text
