#include "text/vocabulary.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace microrec::text {
namespace {

TEST(VocabularyTest, InternAssignsDenseIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("a"), 0u);
  EXPECT_EQ(vocab.Intern("b"), 1u);
  EXPECT_EQ(vocab.Intern("c"), 2u);
  EXPECT_EQ(vocab.size(), 3u);
}

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocab;
  TermId first = vocab.Intern("word");
  TermId second = vocab.Intern("word");
  EXPECT_EQ(first, second);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(VocabularyTest, FindWithoutInterning) {
  Vocabulary vocab;
  vocab.Intern("known");
  EXPECT_EQ(vocab.Find("known"), 0u);
  EXPECT_EQ(vocab.Find("unknown"), kInvalidTerm);
  EXPECT_EQ(vocab.size(), 1u);  // Find must not intern
}

TEST(VocabularyTest, TermOfInverseLookup) {
  Vocabulary vocab;
  TermId id = vocab.Intern("round-trip");
  EXPECT_EQ(vocab.TermOf(id), "round-trip");
}

TEST(VocabularyTest, InternAll) {
  Vocabulary vocab;
  auto ids = vocab.InternAll({"x", "y", "x"});
  EXPECT_EQ(ids, (std::vector<TermId>{0, 1, 0}));
}

TEST(VocabularyTest, EmptyStringIsValidTerm) {
  Vocabulary vocab;
  TermId id = vocab.Intern("");
  EXPECT_EQ(vocab.TermOf(id), "");
  EXPECT_EQ(vocab.Find(""), id);
}

TEST(VocabularyTest, ViewIntoLongerBufferFindsItsTerm) {
  Vocabulary vocab;
  const TermId cat = vocab.Intern("cat");
  const std::string buffer = "concatenate";
  const std::string_view view = std::string_view(buffer).substr(3, 3);
  ASSERT_EQ(view, "cat");
  EXPECT_EQ(vocab.Find(view), cat);
  EXPECT_EQ(vocab.Intern(view), cat);  // no duplicate
  EXPECT_EQ(vocab.size(), 1u);
  EXPECT_EQ(vocab.Find(std::string_view(buffer).substr(3, 2)), kInvalidTerm);
  const TermId nate = vocab.Intern(std::string_view(buffer).substr(7));
  EXPECT_EQ(vocab.TermOf(nate), "nate");
  EXPECT_EQ(vocab.Find("nate"), nate);
}

TEST(VocabularyTest, HandlesManyTerms) {
  Vocabulary vocab;
  for (int i = 0; i < 10000; ++i) {
    vocab.Intern("term" + std::to_string(i));
  }
  EXPECT_EQ(vocab.size(), 10000u);
  EXPECT_EQ(vocab.Find("term9999"), 9999u);
  EXPECT_EQ(vocab.TermOf(1234), "term1234");
}

}  // namespace
}  // namespace microrec::text
