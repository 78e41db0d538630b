// Tweet pooling schemes for topic-model training (Section 3.2, "Using Topic
// Models"): sparsity (challenge C1) starves topic models of co-occurrence
// patterns, so tweets are aggregated into longer pseudo-documents.
//
//   NP — no pooling: every tweet is its own document.
//   UP — user pooling: all tweets by the same author form one document.
//   HP — hashtag pooling: tweets sharing a hashtag form one document;
//        tweets without any hashtag stay individual. A tweet with several
//        hashtags joins the pool of its first hashtag (the paper does not
//        specify; first-hashtag assignment keeps pools disjoint so no tweet
//        is counted twice).
#ifndef MICROREC_CORPUS_POOLING_H_
#define MICROREC_CORPUS_POOLING_H_

#include <array>
#include <string_view>
#include <vector>

#include "corpus/tokenized.h"

namespace microrec::corpus {

/// Pooling scheme selector.
enum class Pooling { kNone, kUser, kHashtag };

inline constexpr std::array<Pooling, 3> kAllPoolings = {
    Pooling::kNone, Pooling::kUser, Pooling::kHashtag};

/// Display name: "NP", "UP", "HP".
std::string_view PoolingName(Pooling pooling);

/// One pseudo-document: the tweet ids pooled into it.
struct PooledDoc {
  std::vector<TweetId> members;
};

/// Groups `tweet_ids` into pseudo-documents under `pooling`. Order of
/// documents and of members within a document is deterministic (first
/// appearance).
std::vector<PooledDoc> PoolTweets(const Corpus& corpus,
                                  const TokenizedCorpus& tokenized,
                                  const std::vector<TweetId>& tweet_ids,
                                  Pooling pooling);

/// The token texts of a pooled document's members, concatenated: views
/// into `tokenized`, valid as long as it is.
std::vector<std::string_view> PooledTokens(const TokenizedCorpus& tokenized,
                                           const PooledDoc& doc);

}  // namespace microrec::corpus

#endif  // MICROREC_CORPUS_POOLING_H_
