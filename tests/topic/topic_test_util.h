// Shared fixtures for the topic-model tests: a tiny corpus with two
// clearly separated latent topics ("animals" vs "finance") and helpers that
// assert a trained model recovers the separation. Words reach a DocSet as
// gram ids of one (token, 1) dictionary, as corpus tweets reach the topic
// engines.
#ifndef MICROREC_TESTS_TOPIC_TOPIC_TEST_UTIL_H_
#define MICROREC_TESTS_TOPIC_TOPIC_TEST_UTIL_H_

#include <string>
#include <vector>

#include "bag/bag_config.h"
#include "gram_docs.h"
#include "topic/doc_set.h"
#include "topic/topic_model.h"
#include "util/rng.h"

namespace microrec::topic {

/// The one featurizer of the topic tests: every word's (token, 1) gram id,
/// interned on first sight and the same for the whole test binary.
inline testutil::GramDocs& Words() {
  static testutil::GramDocs words{bag::BagConfig{}};
  return words;
}

inline const std::vector<std::string>& AnimalWords() {
  static const std::vector<std::string> kWords = {"cat", "dog", "paw",
                                                  "fur", "tail"};
  return kWords;
}

inline const std::vector<std::string>& FinanceWords() {
  static const std::vector<std::string> kWords = {"stock", "bond", "yield",
                                                  "rate", "fund"};
  return kWords;
}

/// Builds `docs_per_topic` documents of each theme, each of `len` words
/// drawn round-robin from the theme vocabulary. Even indices are animal
/// docs, odd indices finance docs.
inline DocSet MakeTwoTopicCorpus(int docs_per_topic = 20, int len = 12) {
  DocSet docs;
  for (int d = 0; d < docs_per_topic; ++d) {
    bag::TokenDoc animal, finance;  // views into the static word lists
    for (int i = 0; i < len; ++i) {
      animal.push_back(AnimalWords()[(d + i) % AnimalWords().size()]);
      finance.push_back(FinanceWords()[(d + i) % FinanceWords().size()]);
    }
    docs.AddDocument(Words().Doc(animal));
    docs.AddDocument(Words().Doc(finance));
  }
  return docs;
}

/// Word-id sequences for fresh test documents of each theme.
inline std::vector<TermId> AnimalQuery(const DocSet& docs) {
  return docs.Lookup(Words().Doc({"cat", "dog", "fur", "cat", "tail", "paw"}));
}
inline std::vector<TermId> FinanceQuery(const DocSet& docs) {
  return docs.Lookup(
      Words().Doc({"stock", "bond", "rate", "fund", "stock", "yield"}));
}

/// Asserts that same-theme documents are closer than cross-theme ones
/// under the trained model's inferred distributions.
inline void ExpectTopicSeparation(const TopicModel& model, const DocSet& docs,
                                  Rng* rng) {
  auto animal1 = model.InferDocument(AnimalQuery(docs), rng);
  auto animal2 = model.InferDocument(
      docs.Lookup(Words().Doc({"dog", "paw", "tail", "dog", "cat", "fur"})),
      rng);
  auto finance = model.InferDocument(FinanceQuery(docs), rng);
  double same = TopicCosine(animal1, animal2);
  double cross = TopicCosine(animal1, finance);
  EXPECT_GT(same, cross) << "same-theme similarity " << same
                         << " should beat cross-theme " << cross;
}

}  // namespace microrec::topic

#endif  // MICROREC_TESTS_TOPIC_TOPIC_TEST_UTIL_H_
