// One-time tokenization of a corpus. Every representation model consumes
// tokens (or the raw text for character n-grams), so tweets are tokenized
// exactly once and shared.
#ifndef MICROREC_CORPUS_TOKENIZED_H_
#define MICROREC_CORPUS_TOKENIZED_H_

#include <cstdint>
#include <vector>

#include "corpus/corpus.h"
#include "text/token_list.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace microrec::corpus {

/// Token stream for every tweet in a corpus, indexed by TweetId: one
/// text::TokenList of the corpus's tokens, tweet after tweet, and each
/// tweet's first-token index.
class TokenizedCorpus {
 public:
  /// Consecutive tweets tokenized per pool task; the list each chunk fills
  /// is appended to the corpus's list in tweet order.
  static constexpr size_t kChunkTweets = 256;

  /// Tokenizes the whole corpus, kChunkTweets tweets per task, on `pool`,
  /// or on a pool of ThreadPool::HardwareThreads() workers made for the
  /// call when it is null. Every token is the same at any pool size.
  TokenizedCorpus(const Corpus& corpus, const text::Tokenizer& tokenizer,
                  ThreadPool* pool = nullptr);

  /// Tweet `id`'s tokens, in order, as views into tokens().
  text::TokenRange TokensOf(TweetId id) const {
    return tokens_.Range(first_[id], first_[id + 1]);
  }

  /// Every token of the corpus, tweet after tweet.
  const text::TokenList& tokens() const { return tokens_; }

  /// The index in tokens() of tweet `id`'s first token; for the corpus's
  /// tweet count, tokens().size().
  size_t FirstToken(TweetId id) const { return first_[id]; }

 private:
  text::TokenList tokens_;
  std::vector<uint32_t> first_;  // tweet t's tokens: [first_[t], first_[t+1])
};

}  // namespace microrec::corpus

#endif  // MICROREC_CORPUS_TOKENIZED_H_
