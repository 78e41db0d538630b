// Labeled LDA's label scheme (Section 4, following Ramage et al. 2010):
//   * one label per hashtag occurring more than `min_hashtag_count` times
//     in the training tweets (no variations);
//   * the question mark (10 variations);
//   * nine emoticon families — smile, frown, wink and the rest with 10
//     variations each, except "big grin", "heart", "surprise" and
//     "confused", which get a single label;
//   * an @user label (10 variations) for tweets whose first token mentions
//     a user.
// Variations split an over-frequent label into ten sub-labels ("frown-0"
// .. "frown-9"); a tweet is assigned the variation indexed by its id.
#ifndef MICROREC_REC_LLDA_LABELS_H_
#define MICROREC_REC_LLDA_LABELS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/tokenized.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace microrec::rec {

/// Builds and applies the label vocabulary.
class LldaLabelScheme {
 public:
  /// Scans the training tweets and fixes the label vocabulary.
  static LldaLabelScheme Build(const corpus::TokenizedCorpus& tokenized,
                               const std::vector<corpus::TweetId>& train,
                               size_t min_hashtag_count = 30);

  /// Total number of distinct label ids.
  size_t num_labels() const { return num_labels_; }

  /// The observed labels of one tweet (empty when none apply). `raw_text`
  /// is consulted for the question-mark label, which tokenization strips.
  std::vector<uint32_t> LabelsFor(corpus::TweetId id,
                                  text::TokenRange tokens,
                                  const std::string& raw_text) const;

  /// Human-readable name of a label id (for diagnostics).
  const std::string& LabelName(uint32_t label) const {
    return label_names_[label];
  }

 private:
  static constexpr int kNumVariations = 10;

  uint32_t AddLabel(const std::string& name);
  /// Registers `count` variation labels under `base`; returns the first id.
  uint32_t AddVariations(const std::string& base, int count);

  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      hashtag_labels_;
  // First variation id per emoticon family, or UINT32_MAX when absent.
  std::vector<uint32_t> emoticon_first_;
  std::vector<int> emoticon_variations_;
  uint32_t question_first_ = UINT32_MAX;
  uint32_t mention_first_ = UINT32_MAX;
  std::vector<std::string> label_names_;
  size_t num_labels_ = 0;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_LLDA_LABELS_H_
