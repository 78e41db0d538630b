#include "topic/doc_set.h"

#include <gtest/gtest.h>

#include "bag/bag_config.h"
#include "gram_docs.h"

namespace microrec::topic {
namespace {

TEST(DocSetTest, AddDocumentInternsWords) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet docs;
  size_t index = docs.AddDocument(words.Doc({"a", "b", "a"}));
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(docs.num_docs(), 1u);
  EXPECT_EQ(docs.vocab_size(), 2u);
  EXPECT_EQ(docs.total_tokens(), 3u);
  EXPECT_EQ(docs.docs()[0].words, (std::vector<TermId>{0, 1, 0}));
}

TEST(DocSetTest, SharedVocabularyAcrossDocuments) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet docs;
  docs.AddDocument(words.Doc({"a", "b"}));
  docs.AddDocument(words.Doc({"b", "c"}));
  EXPECT_EQ(docs.vocab_size(), 3u);
  EXPECT_EQ(docs.docs()[1].words, (std::vector<TermId>{1, 2}));
}

TEST(DocSetTest, SetLabels) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet docs;
  size_t index = docs.AddDocument(words.Doc({"x"}));
  docs.SetLabels(index, {4, 7});
  EXPECT_EQ(docs.docs()[index].labels, (std::vector<uint32_t>{4, 7}));
}

TEST(DocSetTest, LookupDropsUnseenTokens) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet docs;
  docs.AddDocument(words.Doc({"known", "words"}));
  std::vector<TermId> ids =
      docs.Lookup(words.Doc({"known", "unseen", "words"}));
  EXPECT_EQ(ids, (std::vector<TermId>{0, 1}));
  // Lookup must not grow the vocabulary.
  EXPECT_EQ(docs.vocab_size(), 2u);
}

TEST(DocSetTest, EmptyDocumentAllowed) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet docs;
  size_t index = docs.AddDocument(words.Doc({}));
  EXPECT_TRUE(docs.docs()[index].words.empty());
  EXPECT_EQ(docs.total_tokens(), 0u);
}

TEST(DocSetTest, WordIdsFollowFirstAppearanceNotGramIds) {
  // Gram ids 9 and 4: the DocSet numbers its words 0 and 1 in the order it
  // first sees them, and its vocabulary maps them back.
  DocSet docs;
  const std::vector<TermId> grams = {9, 4, 9};
  docs.AddDocument(grams);
  EXPECT_EQ(docs.docs()[0].words, (std::vector<TermId>{0, 1, 0}));
  EXPECT_EQ(docs.vocabulary().grams(), (std::vector<TermId>{9, 4}));
}

TEST(DocSetTest, RestoredVocabularyLooksUpAsTheTrainedOne) {
  testutil::GramDocs words{bag::BagConfig{}};
  DocSet trained;
  trained.AddDocument(words.Doc({"cat", "naps", "warm"}));
  const bag::GramDoc query = words.Doc({"warm", "unseen", "cat"});

  const DocSet restored(trained.vocabulary());
  EXPECT_EQ(restored.num_docs(), 0u);
  EXPECT_EQ(restored.vocab_size(), 3u);
  EXPECT_EQ(restored.Lookup(query), trained.Lookup(query));
  EXPECT_EQ(restored.Lookup(query), (std::vector<TermId>{2, 0}));
}

}  // namespace
}  // namespace microrec::topic
