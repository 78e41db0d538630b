#include "rec/followee_rec.h"

#include <algorithm>
#include <unordered_set>

namespace microrec::rec {

std::vector<text::TermId> FolloweeRecommender::Featurize(
    std::span<const std::string_view> doc) {
  return bag::GramIds(doc, config_.bag.kind, config_.bag.n, &dictionary_);
}

Status FolloweeRecommender::BuildProfiles(size_t min_posts) {
  if (config_.kind != ModelKind::kTN && config_.kind != ModelKind::kCN) {
    return Status::InvalidArgument(
        "followee recommendation uses bag-model configurations (TN/CN)");
  }
  const corpus::Corpus& corpus = pre_->corpus();
  dictionary_ = text::Vocabulary();
  std::vector<std::vector<text::TermId>> featurized;
  std::vector<corpus::UserId> owners;
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    const auto& posts = corpus.PostsOf(u);
    if (posts.size() < min_posts) continue;
    bag::TokenDoc doc;
    for (corpus::TweetId id : posts) {
      const std::span<const std::string_view> tokens = pre_->Filtered(id);
      doc.insert(doc.end(), tokens.begin(), tokens.end());
    }
    featurized.push_back(Featurize(doc));
    owners.push_back(u);
  }
  if (featurized.empty()) {
    return Status::FailedPrecondition("no user reaches the post threshold");
  }
  const std::vector<bag::GramDoc> docs(featurized.begin(), featurized.end());
  modeler_ = std::make_unique<bag::BagModeler>(config_.bag);
  modeler_->Fit(docs);
  profiles_.clear();
  profiles_.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    Profile profile;
    profile.user = owners[i];
    profile.vector = modeler_->EmbedDocument(docs[i]);
    profile.posts = corpus.PostsOf(owners[i]).size();
    profiles_.push_back(std::move(profile));
  }
  return Status::OK();
}

Result<std::vector<FolloweeSuggestion>> FolloweeRecommender::Recommend(
    corpus::UserId ego, const corpus::LabeledTrainSet& train, size_t top_k) {
  if (modeler_ == nullptr) {
    return Status::FailedPrecondition("BuildProfiles() not called");
  }
  std::vector<std::vector<text::TermId>> featurized;
  featurized.reserve(train.docs.size());
  for (corpus::TweetId id : train.docs) {
    featurized.push_back(Featurize(pre_->Filtered(id)));
  }
  bag::SparseVector user = modeler_->BuildUserVector(
      {featurized.begin(), featurized.end()}, train.positive);
  if (user.empty()) {
    return Status::FailedPrecondition("ego model is empty");
  }

  const auto& followees = pre_->corpus().graph().Followees(ego);
  std::unordered_set<corpus::UserId> excluded(followees.begin(),
                                              followees.end());
  excluded.insert(ego);

  std::vector<FolloweeSuggestion> ranked;
  for (const Profile& profile : profiles_) {
    if (excluded.count(profile.user)) continue;
    ranked.push_back({profile.user, modeler_->Score(user, profile.vector),
                      profile.posts});
  }
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const FolloweeSuggestion& a, const FolloweeSuggestion& b) {
        return a.score > b.score;
      });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

}  // namespace microrec::rec
