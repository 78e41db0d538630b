// Featurizes literal token documents for the bag and graph modeler tests.
// The modelers take documents only as gram-id sequences (bag::GramDoc);
// like the hashtag and followee recommenders, a test owns the dictionary
// its documents are featurized into, through bag::GramIds.
#ifndef MICROREC_TESTS_GRAM_DOCS_H_
#define MICROREC_TESTS_GRAM_DOCS_H_

#include <deque>
#include <vector>

#include "bag/bag_model.h"

namespace microrec::testutil {

class GramDocs {
 public:
  /// Featurizes as `config` (a bag::BagConfig or graph::GraphConfig) does.
  template <typename Config>
  explicit GramDocs(const Config& config) : kind_(config.kind), n_(config.n) {}

  /// The gram ids of `doc`; valid as long as this object.
  bag::GramDoc Doc(const bag::TokenDoc& doc) {
    return kept_.emplace_back(bag::GramIds(doc, kind_, n_, &dictionary_));
  }

  std::vector<bag::GramDoc> Docs(const std::vector<bag::TokenDoc>& docs) {
    std::vector<bag::GramDoc> out;
    for (const bag::TokenDoc& doc : docs) out.push_back(Doc(doc));
    return out;
  }

 private:
  bag::NgramKind kind_;
  int n_;
  text::Vocabulary dictionary_;
  std::deque<std::vector<text::TermId>> kept_;  // stable element addresses
};

}  // namespace microrec::testutil

#endif  // MICROREC_TESTS_GRAM_DOCS_H_
