// Hashtag recommendation — the first of the paper's future-work tasks
// (Section 7: "we plan to expand our comparative analysis to other
// recommendation tasks ... such as followees and hashtag suggestions").
//
// The same content-based machinery transfers directly: every hashtag is
// profiled by the pseudo-document of all (training) tweets that carry it —
// exactly the paper's hashtag pooling — and candidates are ranked by the
// similarity of their profile to the user model, using any bag-model
// configuration.
#ifndef MICROREC_REC_HASHTAG_REC_H_
#define MICROREC_REC_HASHTAG_REC_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bag/bag_model.h"
#include "corpus/split.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "util/status.h"

namespace microrec::rec {

/// One ranked suggestion.
struct HashtagSuggestion {
  std::string hashtag;
  double score = 0.0;
  size_t support = 0;  // training tweets carrying the tag
};

/// Content-based hashtag recommender. Single-user-at-a-time, single-thread.
class HashtagRecommender {
 public:
  /// `config` must be a bag-model configuration (TN or CN); other model
  /// kinds are rejected by BuildProfiles.
  HashtagRecommender(const PreprocessedCorpus* pre, const ModelConfig& config)
      : pre_(pre), config_(config) {}

  /// Scans `tweets` (typically: every cohort user's training-phase posts),
  /// pools them by hashtag and fits the vocabulary. Hashtags with fewer
  /// than `min_support` tweets are dropped. The hashtag tokens themselves
  /// are excluded from the profiles — otherwise every profile would be
  /// trivially self-identifying.
  Status BuildProfiles(const std::vector<corpus::TweetId>& tweets,
                       size_t min_support = 5);

  /// Ranks all profiled hashtags for a user given her labelled train set;
  /// hashtags she already used in those tweets are excluded (a suggestion
  /// should be novel). Returns the top `top_k` by similarity.
  Result<std::vector<HashtagSuggestion>> Recommend(
      const corpus::LabeledTrainSet& user_train, size_t top_k = 10);

  size_t num_profiles() const { return profiles_.size(); }

 private:
  /// Stop-filtered tokens of a tweet minus its hashtag tokens, as views
  /// into the pre-processed corpus.
  bag::TokenDoc ContentTokens(corpus::TweetId id) const;

  /// The gram ids of a pooled or hashtag-stripped document: these are not
  /// corpus tweets, so they are featurized into dictionary_.
  std::vector<text::TermId> Featurize(std::span<const std::string_view> doc);

  const PreprocessedCorpus* pre_;
  ModelConfig config_;
  struct Profile {
    std::string hashtag;
    bag::SparseVector vector;
    size_t support = 0;
  };
  text::Vocabulary dictionary_;  // of the documents modeler_ sees
  std::unique_ptr<bag::BagModeler> modeler_;
  std::vector<Profile> profiles_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_HASHTAG_REC_H_
