// Followee recommendation — the second future-work task of Section 7
// ("followees and hashtag suggestions"), solved with the same content-based
// machinery as Hannon et al. [31] (cited by the paper): candidate accounts
// are profiled by the pseudo-document of their own posts, and ranked by the
// similarity of that profile to the ego user's model.
#ifndef MICROREC_REC_FOLLOWEE_REC_H_
#define MICROREC_REC_FOLLOWEE_REC_H_

#include <span>
#include <string_view>
#include <vector>

#include "bag/bag_model.h"
#include "corpus/split.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "util/status.h"

namespace microrec::rec {

/// One ranked account suggestion.
struct FolloweeSuggestion {
  corpus::UserId user = corpus::kInvalidUser;
  double score = 0.0;
  size_t posts = 0;  // profile size
};

/// Content-based followee recommender. Single-thread.
class FolloweeRecommender {
 public:
  /// `config` must be a bag-model configuration (TN or CN).
  FolloweeRecommender(const PreprocessedCorpus* pre,
                      const ModelConfig& config)
      : pre_(pre), config_(config) {}

  /// Profiles every user with at least `min_posts` posts from her own
  /// timeline (original tweets and retweets alike — what a visitor to her
  /// profile page would see).
  Status BuildProfiles(size_t min_posts = 10);

  /// Ranks candidate accounts for `ego`: everyone profiled except ego
  /// herself and the accounts she already follows. The ego model is built
  /// from `train` (typically her retweets, the paper's best source).
  Result<std::vector<FolloweeSuggestion>> Recommend(
      corpus::UserId ego, const corpus::LabeledTrainSet& train,
      size_t top_k = 10);

  size_t num_profiles() const { return profiles_.size(); }

 private:
  /// The gram ids of a document in dictionary_. Concatenated posts are not
  /// corpus tweets, and the ego's posts must share their id space.
  std::vector<text::TermId> Featurize(std::span<const std::string_view> doc);

  const PreprocessedCorpus* pre_;
  ModelConfig config_;
  struct Profile {
    corpus::UserId user = corpus::kInvalidUser;
    bag::SparseVector vector;
    size_t posts = 0;
  };
  text::Vocabulary dictionary_;  // of the documents modeler_ sees
  std::unique_ptr<bag::BagModeler> modeler_;
  std::vector<Profile> profiles_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_FOLLOWEE_REC_H_
