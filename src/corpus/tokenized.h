// One-time tokenization of a corpus. Every representation model consumes
// tokens (or the raw text for character n-grams), so tweets are tokenized
// exactly once and shared.
#ifndef MICROREC_CORPUS_TOKENIZED_H_
#define MICROREC_CORPUS_TOKENIZED_H_

#include <vector>

#include "corpus/corpus.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace microrec::corpus {

/// Token stream for every tweet in a corpus, indexed by TweetId.
class TokenizedCorpus {
 public:
  /// Tokenizes the whole corpus, one tweet per task, on `pool`, or on a
  /// pool of ThreadPool::HardwareThreads() workers made for the call when
  /// it is null. Every tweet's tokens are the same at any pool size.
  TokenizedCorpus(const Corpus& corpus, const text::Tokenizer& tokenizer,
                  ThreadPool* pool = nullptr);

  const std::vector<text::Token>& TokensOf(TweetId id) const {
    return tokens_[id];
  }

 private:
  std::vector<std::vector<text::Token>> tokens_;
};

}  // namespace microrec::corpus

#endif  // MICROREC_CORPUS_TOKENIZED_H_
