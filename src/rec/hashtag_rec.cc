#include "rec/hashtag_rec.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <unordered_set>

namespace microrec::rec {

bag::TokenDoc HashtagRecommender::ContentTokens(corpus::TweetId id) const {
  bag::TokenDoc out;
  for (const text::TokenView token : pre_->tokenized().TokensOf(id)) {
    if (token.type == text::TokenType::kHashtag) continue;
    if (pre_->stop_filter().IsStop(token.text)) continue;
    out.push_back(token.text);
  }
  return out;
}

std::vector<text::TermId> HashtagRecommender::Featurize(
    std::span<const std::string_view> doc) {
  return bag::GramIds(doc, config_.bag.kind, config_.bag.n, &dictionary_);
}

Status HashtagRecommender::BuildProfiles(
    const std::vector<corpus::TweetId>& tweets, size_t min_support) {
  if (config_.kind != ModelKind::kTN && config_.kind != ModelKind::kCN) {
    return Status::InvalidArgument(
        "hashtag recommendation uses bag-model configurations (TN/CN)");
  }
  // Hashtag -> member tweets (a tweet with several tags joins each pool —
  // unlike HP pooling, a *profile* should see all its evidence). Keyed by
  // views into the pre-processed corpus.
  std::map<std::string_view, std::vector<corpus::TweetId>> pools;
  for (corpus::TweetId id : tweets) {
    std::unordered_set<std::string_view> seen;
    for (const text::TokenView token : pre_->tokenized().TokensOf(id)) {
      if (token.type == text::TokenType::kHashtag &&
          seen.insert(token.text).second) {
        pools[token.text].push_back(id);
      }
    }
  }

  // Fit the modeler on the pooled documents, then embed each pool.
  dictionary_ = text::Vocabulary();
  std::vector<std::vector<text::TermId>> pooled;
  std::vector<std::string_view> tags;
  for (const auto& [tag, members] : pools) {
    if (members.size() < min_support) continue;
    bag::TokenDoc doc;
    for (corpus::TweetId id : members) {
      const bag::TokenDoc tokens = ContentTokens(id);
      doc.insert(doc.end(), tokens.begin(), tokens.end());
    }
    pooled.push_back(Featurize(doc));
    tags.push_back(tag);
  }
  if (pooled.empty()) {
    return Status::FailedPrecondition(
        "no hashtag reaches the support threshold");
  }

  const std::vector<bag::GramDoc> docs(pooled.begin(), pooled.end());
  modeler_ = std::make_unique<bag::BagModeler>(config_.bag);
  modeler_->Fit(docs);
  profiles_.clear();
  profiles_.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    Profile profile;
    profile.hashtag = tags[i];
    profile.vector = modeler_->EmbedDocument(docs[i]);
    profile.support = pools.at(tags[i]).size();
    profiles_.push_back(std::move(profile));
  }
  return Status::OK();
}

Result<std::vector<HashtagSuggestion>> HashtagRecommender::Recommend(
    const corpus::LabeledTrainSet& user_train, size_t top_k) {
  if (modeler_ == nullptr) {
    return Status::FailedPrecondition("BuildProfiles() not called");
  }
  // The user model: her training documents, hashtags stripped.
  std::vector<std::vector<text::TermId>> featurized;
  std::unordered_set<std::string_view> already_used;
  featurized.reserve(user_train.docs.size());
  for (corpus::TweetId id : user_train.docs) {
    featurized.push_back(Featurize(ContentTokens(id)));
    for (const text::TokenView token : pre_->tokenized().TokensOf(id)) {
      if (token.type == text::TokenType::kHashtag) {
        already_used.insert(token.text);
      }
    }
  }
  bag::SparseVector user = modeler_->BuildUserVector(
      {featurized.begin(), featurized.end()}, user_train.positive);
  if (user.empty()) {
    return Status::FailedPrecondition("user model is empty");
  }

  std::vector<HashtagSuggestion> ranked;
  for (const Profile& profile : profiles_) {
    if (already_used.count(profile.hashtag)) continue;
    ranked.push_back({profile.hashtag,
                      modeler_->Score(user, profile.vector),
                      profile.support});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const HashtagSuggestion& a, const HashtagSuggestion& b) {
                     return a.score > b.score;
                   });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

}  // namespace microrec::rec
