#include "corpus/pooling.h"

#include <unordered_map>

namespace microrec::corpus {

std::string_view PoolingName(Pooling pooling) {
  switch (pooling) {
    case Pooling::kNone:
      return "NP";
    case Pooling::kUser:
      return "UP";
    case Pooling::kHashtag:
      return "HP";
  }
  return "?";
}

std::vector<PooledDoc> PoolTweets(const Corpus& corpus,
                                  const TokenizedCorpus& tokenized,
                                  const std::vector<TweetId>& tweet_ids,
                                  Pooling pooling) {
  std::vector<PooledDoc> docs;
  switch (pooling) {
    case Pooling::kNone: {
      docs.reserve(tweet_ids.size());
      for (TweetId id : tweet_ids) docs.push_back(PooledDoc{{id}});
      break;
    }
    case Pooling::kUser: {
      std::unordered_map<UserId, size_t> pool_of_user;
      for (TweetId id : tweet_ids) {
        UserId author = corpus.tweet(id).author;
        auto [it, inserted] = pool_of_user.emplace(author, docs.size());
        if (inserted) docs.emplace_back();
        docs[it->second].members.push_back(id);
      }
      break;
    }
    case Pooling::kHashtag: {
      // Keyed by views into `tokenized`.
      std::unordered_map<std::string_view, size_t> pool_of_tag;
      for (TweetId id : tweet_ids) {
        std::string_view tag;  // stays empty, as no hashtag token is
        for (const text::TokenView token : tokenized.TokensOf(id)) {
          if (token.type == text::TokenType::kHashtag) {
            tag = token.text;
            break;
          }
        }
        if (tag.empty()) {
          docs.push_back(PooledDoc{{id}});
          continue;
        }
        auto [it, inserted] = pool_of_tag.emplace(tag, docs.size());
        if (inserted) docs.emplace_back();
        docs[it->second].members.push_back(id);
      }
      break;
    }
  }
  return docs;
}

std::vector<std::string_view> PooledTokens(const TokenizedCorpus& tokenized,
                                           const PooledDoc& doc) {
  std::vector<std::string_view> out;
  for (TweetId id : doc.members) {
    for (const text::TokenView token : tokenized.TokensOf(id)) {
      out.push_back(token.text);
    }
  }
  return out;
}

}  // namespace microrec::corpus
