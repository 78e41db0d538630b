// Corpus-level stop-token removal: the paper removes the 100 most frequent
// tokens across all training tweets as a language-agnostic substitute for
// stop-word lists (Section 4).
#ifndef MICROREC_CORPUS_STOP_TOKENS_H_
#define MICROREC_CORPUS_STOP_TOKENS_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "corpus/tokenized.h"

namespace microrec::corpus {

/// Set of tokens to drop before any model sees a document.
class StopTokenFilter {
 public:
  /// Computes the `top_k` most frequent token strings over the given tweets
  /// (typically: every user's training-phase tweets). Ties are broken
  /// lexicographically for determinism.
  static StopTokenFilter FromTopFrequent(const TokenizedCorpus& tokenized,
                                         const std::vector<TweetId>& tweets,
                                         size_t top_k = 100);

  bool IsStop(const std::string& token) const {
    return stop_tokens_.count(token) > 0;
  }

  /// The texts of `tokens` that are not stop tokens, in order: views into
  /// `tokens`, valid as long as they are.
  std::vector<std::string_view> Filter(
      const std::vector<text::Token>& tokens) const;

  size_t size() const { return stop_tokens_.size(); }

 private:
  std::unordered_set<std::string> stop_tokens_;
};

}  // namespace microrec::corpus

#endif  // MICROREC_CORPUS_STOP_TOKENS_H_
